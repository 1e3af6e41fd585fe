package hybridstitch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// registeredFlags lists the names of the flags a command's source
// registers on the default flag set (flag.String, flag.Int, ...).
func registeredFlags(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING || strings.HasSuffix(sel.Sel.Name, "Var") {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		return true
	})
	return names
}

// TestREADMEDocumentsEveryFlag: every flag stitch and plateview register
// appears in README.md as a -name token (at a word start, in prose, a
// code span or a command line), so a new flag cannot ship undocumented.
func TestREADMEDocumentsEveryFlag(t *testing.T) {
	blob, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"stitch", "plateview"} {
		names := registeredFlags(t, "cmd/"+cmd+"/main.go")
		if len(names) < 10 {
			t.Fatalf("%s: found only %d registered flags %v; the source scan is broken", cmd, len(names), names)
		}
		for _, name := range names {
			token := regexp.MustCompile("(^|[\\s`(\\[|])-" + regexp.QuoteMeta(name) + "($|[\\s`=,.;:)\\]|])")
			if !token.Match(blob) {
				t.Errorf("%s -%s is not documented in README.md", cmd, name)
			}
		}
	}
}
