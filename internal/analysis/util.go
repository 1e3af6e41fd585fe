package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// callee describes the resolved target of a call expression.
type callee struct {
	pkgPath string // defining package ("" for builtins)
	recv    string // receiver named type ("" for plain functions)
	name    string // function or method name
}

// resolveCallee identifies what a CallExpr invokes, looking through
// pointer receivers. ok is false for builtins, conversions, and calls of
// function-typed values.
func resolveCallee(info *types.Info, call *ast.CallExpr) (callee, bool) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.Ident:
		obj = info.Uses[fun]
	default:
		return callee{}, false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return callee{}, false
	}
	c := callee{name: fn.Name()}
	if fn.Pkg() != nil {
		c.pkgPath = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return callee{}, false
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			c.recv = named.Obj().Name()
		}
	}
	return c, true
}

// is reports whether the callee matches pkgPath, receiver type, and name.
// An empty recv matches plain functions only.
func (c callee) is(pkgPath, recv, name string) bool {
	return c.pkgPath == pkgPath && c.recv == recv && c.name == name
}

// walkStack traverses n, calling f with each node and the stack of its
// ancestors (outermost first, not including the node itself). If f
// returns false the node's children are skipped.
func walkStack(n ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !f(n, stack) {
			// ast.Inspect only delivers the balancing nil pop when we
			// return true, so don't push a frame for skipped subtrees.
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// exprString renders an expression compactly (for diagnostics and for
// matching mutex expressions lexically).
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "<expr>"
	}
	return buf.String()
}

// identObj resolves an identifier expression to its variable object, or
// nil if e is not a plain identifier.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj, ok := info.Uses[id].(*types.Var); ok {
		return obj
	}
	if obj, ok := info.Defs[id].(*types.Var); ok {
		return obj
	}
	return nil
}

// usesObj reports whether the expression subtree mentions obj.
func usesObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	if e == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// funcBodies yields every function body in the files: declarations and
// top-level function literals each count once. Nested literals are
// visited as part of their enclosing body (lexical containment is what
// the analyzers reason about), except where an analyzer opts out.
func funcBodies(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

const (
	gpuPkg    = "hybridstitch/internal/gpu"
	memgovPkg = "hybridstitch/internal/memgov"
	obsPkg    = "hybridstitch/internal/obs"
	pciamPkg  = "hybridstitch/internal/pciam"
	syncPkg   = "sync"
	timePkg   = "time"
)
