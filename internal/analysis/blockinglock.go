package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BlockingLock checks that no blocking operation runs while a
// sync.Mutex or sync.RWMutex is held. The simulator's hot paths — the
// device memory accountant, the stream dispatchers, the inter-stage
// monitor queues — all take short mutex-protected sections; a blocking
// call inside one serializes every stream on the device (or deadlocks
// outright, as with a pool acquire under the allocator lock).
//
// A critical section runs from X.Lock()/X.RLock() to the matching
// X.Unlock()/X.RUnlock() on the same lexical receiver expression, or to
// the end of the function when the unlock is deferred. Within it, the
// following are flagged:
//
//   - time.Sleep
//   - (*gpu.Event).Wait, (*gpu.Stream).Synchronize,
//     (*gpu.Device).Synchronize
//   - (*sync.WaitGroup).Wait
//   - channel sends, channel receives, and select statements without a
//     default case
//
// sync.Cond.Wait is exempt: it releases the mutex while parked, which is
// precisely the pattern the stream dispatchers and queues use. Function
// literals inside a section are analyzed as their own scope — code in a
// callback or spawned goroutine does not (necessarily) run under the
// lock.
var BlockingLock = &Analyzer{
	Name: "blockinglock",
	Doc:  "no blocking calls (Synchronize, Event.Wait, time.Sleep, channel ops) while holding a sync.Mutex",
	Run:  runBlockingLock,
}

func runBlockingLock(pass *Pass) error {
	for _, fd := range funcBodies(pass.Files) {
		blockingLockScope(pass, fd.Body)
	}
	return nil
}

// section is one lexical critical region.
type section struct {
	mutex string // receiver expression, e.g. "d.memMu"
	start token.Pos
	end   token.Pos // NoPos while unmatched; deferred unlock → end of body
}

// mutexOp classifies a call as a Lock/Unlock on a sync (RW)mutex and
// returns the receiver's lexical key.
func mutexOp(pass *Pass, call *ast.CallExpr) (key, op string, ok bool) {
	c, okc := resolveCallee(pass.TypesInfo, call)
	if !okc || c.pkgPath != syncPkg {
		return "", "", false
	}
	if c.recv != "Mutex" && c.recv != "RWMutex" {
		return "", "", false
	}
	switch c.name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	sel, oks := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !oks {
		return "", "", false
	}
	return exprString(pass.Fset, sel.X), c.name, true
}

// blockingLockScope analyzes one function body; nested function literals
// recurse into their own scope and are skipped in the outer walk.
func blockingLockScope(pass *Pass, body *ast.BlockStmt) {
	var sections []section

	// Pass 1: build critical sections from lock/unlock pairs at this
	// nesting level.
	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			blockingLockScope(pass, fl.Body)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, op, ok := mutexOp(pass, call)
		if !ok {
			return true
		}
		deferred := false
		for _, anc := range stack {
			if _, ok := anc.(*ast.DeferStmt); ok {
				deferred = true
				break
			}
		}
		switch op {
		case "Lock", "RLock":
			sections = append(sections, section{mutex: key, start: call.Pos()})
		case "Unlock", "RUnlock":
			for i := len(sections) - 1; i >= 0; i-- {
				s := &sections[i]
				if s.mutex != key || s.end != token.NoPos {
					continue
				}
				if deferred {
					s.end = body.End()
				} else {
					s.end = call.Pos()
				}
				break
			}
		}
		return true
	})
	for i := range sections {
		if sections[i].end == token.NoPos {
			// Lock with no visible unlock in this scope: assume held to
			// the end (the conservative reading).
			sections[i].end = body.End()
		}
	}
	if len(sections) == 0 {
		return
	}

	holding := func(pos token.Pos) (section, bool) {
		for _, s := range sections {
			if pos > s.start && pos < s.end {
				return s, true
			}
		}
		return section{}, false
	}

	// Pass 2: flag blocking operations inside a section.
	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // own scope, handled above
		}
		what, pos, ok := blockingOp(pass, n)
		if !ok {
			return true
		}
		// A channel op that is a select communication clause is judged as
		// part of the select statement, not on its own.
		switch n.(type) {
		case *ast.SendStmt, *ast.UnaryExpr:
			for _, anc := range stack {
				if _, isComm := anc.(*ast.CommClause); isComm {
					return true
				}
			}
		}
		if s, held := holding(pos); held {
			pass.Reportf(pos, "%s while holding %s (critical section starts at line %d)",
				what, s.mutex, pass.Fset.Position(s.start).Line)
		}
		return true
	})
}

// blockingOp classifies a node as a blocking operation.
func blockingOp(pass *Pass, n ast.Node) (what string, pos token.Pos, ok bool) {
	info := pass.TypesInfo
	switch v := n.(type) {
	case *ast.CallExpr:
		c, okc := resolveCallee(info, v)
		if !okc {
			return "", token.NoPos, false
		}
		switch {
		case c.pkgPath == timePkg && c.recv == "" && c.name == "Sleep":
			return "time.Sleep", v.Pos(), true
		case c.is(syncPkg, "WaitGroup", "Wait"):
			return "sync.WaitGroup.Wait", v.Pos(), true
		case c.is(gpuPkg, "Event", "Wait"):
			return "gpu.Event.Wait", v.Pos(), true
		case c.is(gpuPkg, "Stream", "Synchronize"):
			return "gpu.Stream.Synchronize", v.Pos(), true
		case c.is(gpuPkg, "Device", "Synchronize"):
			return "gpu.Device.Synchronize", v.Pos(), true
		}
	case *ast.SendStmt:
		return "channel send", v.Pos(), true
	case *ast.UnaryExpr:
		if v.Op == token.ARROW {
			return "channel receive", v.Pos(), true
		}
	case *ast.RangeStmt:
		if tv, okt := info.Types[v.X]; okt {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "range over channel", v.X.Pos(), true
			}
		}
	case *ast.SelectStmt:
		for _, cl := range v.Body.List {
			if cc, okc := cl.(*ast.CommClause); okc && cc.Comm == nil {
				return "", token.NoPos, false // has default: non-blocking
			}
		}
		return "select without default", v.Pos(), true
	}
	return "", token.NoPos, false
}
