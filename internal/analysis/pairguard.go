package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PairGuard is the flow-sensitive acquire/release pairing analysis. It
// subsumes the old syntactic bufferfree check: where bufferfree compared
// lexical positions (a release anywhere before a return made the return
// safe, even when the two sit on mutually exclusive branches), PairGuard
// walks the control-flow graph and reports every *path* — early return,
// explicit panic, error branch, fall-through — on which a release is not
// guaranteed.
//
// The acquire/release pairs are declared in one table (pairTable):
//
//   - gpu.Device.Alloc / AllocBlocking / AllocSpectrum → Buffer.Free
//   - memgov.Governor.Alloc                            → Allocation.Free
//   - obs.Recorder.StartSpan, obs.Span.Child/ChildOn   → Span.End
//   - pciam.NewAligner / NewRealAligner                → Close
//
// Releases are defer-aware: a `defer v.Free()` (or a defer whose closure
// releases v) discharges every path that passes the defer statement,
// including panic unwinds. Ownership transfers discharge exactly as they
// did under bufferfree: passing the value to any call, returning it,
// storing it into a field/map/slice/channel/composite literal, assigning
// it to another variable, or taking its address.
//
// Error branches are path-sensitive: on the `err != nil` arm of the
// acquisition's own error result nothing was acquired and nothing is
// owed — but only while that err binding is live. Once a later statement
// reassigns err, an `if err != nil { return }` guard no longer excuses
// earlier acquisitions, which is precisely the leak-on-error-path shape
// the syntactic check could not see.
var PairGuard = &Analyzer{
	Name: "pairguard",
	Doc:  "acquired resources (device buffers, governor allocations, spans, pooled aligners) must be released on every path",
	Run:  runPairGuard,
}

// pairAcquire reports whether the call acquires a tracked resource,
// naming it and its release method(s) for diagnostics.
func pairAcquire(info *types.Info, call *ast.CallExpr) (what, release string, ok bool) {
	c, okc := resolveCallee(info, call)
	if !okc {
		return "", "", false
	}
	switch {
	case c.is(gpuPkg, "Device", "Alloc"), c.is(gpuPkg, "Device", "AllocBlocking"),
		c.is(gpuPkg, "Device", "AllocSpectrum"):
		return "gpu.Device." + c.name, "Free", true
	case c.is(memgovPkg, "Governor", "Alloc"):
		return "memgov.Governor.Alloc", "Free", true
	case c.is(obsPkg, "Recorder", "StartSpan"), c.is(obsPkg, "Span", "Child"),
		c.is(obsPkg, "Span", "ChildOn"):
		return "obs." + c.recv + "." + c.name, "End", true
	case c.is(pciamPkg, "", "NewAligner"), c.is(pciamPkg, "", "NewRealAligner"):
		return "pciam." + c.name, "Close", true
	}
	return "", "", false
}

// pairSite is one tracked acquisition inside a function.
type pairSite struct {
	what    string       // e.g. "gpu.Device.Alloc"
	release string       // release method name, e.g. "Free"
	pos     token.Pos
	stmt    ast.Node     // the acquiring assignment
	obj     types.Object // variable holding the resource
	errObj  types.Object // paired error result, if any
}

func runPairGuard(pass *Pass) error {
	for _, fd := range funcBodies(pass.Files) {
		pairGuardFunc(pass, fd.Body)
	}
	return nil
}

// pairGuardFunc analyzes one function body.
func pairGuardFunc(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	var sites []*pairSite

	// Find acquisition sites and immediately-diagnosable misuse (result
	// discarded or assigned to _): same contract as the old bufferfree.
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if what, release, ok := pairAcquire(info, call); ok {
					pass.Reportf(call.Pos(), "result of %s is discarded: %s can never be called", what, release)
				}
			}
		case *ast.DeferStmt:
			// `defer parent.Child(...)` acquires at function exit and drops
			// the handle; report like a discard.
			if what, release, ok := pairAcquire(info, st.Call); ok {
				pass.Reportf(st.Call.Pos(), "result of deferred %s is discarded: %s can never be called", what, release)
			}
			return false
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			what, release, ok := pairAcquire(info, call)
			if !ok {
				return true
			}
			site := &pairSite{what: what, release: release, pos: call.Pos(), stmt: st}
			if len(st.Lhs) > 0 {
				site.obj = identObj(info, st.Lhs[0])
				if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
					pass.Reportf(call.Pos(), "result of %s is assigned to _: %s can never be called", what, release)
					return true
				}
			}
			if len(st.Lhs) > 1 {
				site.errObj = identObj(info, st.Lhs[1])
			}
			if site.obj == nil {
				// Stored straight into a field/index: ownership transfer by
				// construction.
				return true
			}
			sites = append(sites, site)
		}
		return true
	})
	if len(sites) == 0 {
		return
	}

	// Sites with no discharge anywhere get the classic single report at
	// the acquisition; path analysis covers the rest.
	var flowSites []*pairSite
	for _, site := range sites {
		if !anyDischarge(info, body, site) {
			pass.Reportf(site.pos, "result of %s is never freed or ownership-transferred", site.what)
			continue
		}
		flowSites = append(flowSites, site)
	}
	if len(flowSites) == 0 {
		return
	}

	cfg := buildCFG(body)
	st := &pairFlow{info: info, sites: flowSites}
	df := &dataflow{
		cfg:      cfg,
		nbits:    2 * len(flowSites),
		transfer: st.transfer,
		refine:   st.refine,
	}
	in := df.run()

	// Re-walk each terminating block with its stabilized in-fact,
	// reporting obligations still live when the function exits.
	for _, blk := range cfg.blocks {
		fact := in[blk.index].clone()
		for _, n := range blk.nodes {
			st.observeNode(pass, n, fact)
			st.transfer(n, fact)
		}
		if blk.term == termNone || blk.term == termGoto {
			continue
		}
		for i, site := range flowSites {
			if !fact.has(2 * i) {
				continue
			}
			line := pass.Fset.Position(site.pos).Line
			switch blk.term {
			case termReturn:
				pass.Reportf(blk.termNode.Pos(),
					"return leaks the %s result acquired at line %d: %s (or an ownership transfer) is not reached on this path",
					site.what, line, site.release)
			case termPanic:
				pass.Reportf(blk.termNode.Pos(),
					"panic unwinds past the %s result acquired at line %d: only a defer can release it on this path",
					site.what, line)
			case termEnd:
				pass.Reportf(site.pos,
					"result of %s is not released on the path falling off the end of the function (%s never called)",
					site.what, site.release)
			}
		}
	}
}

// pairFlow carries the per-function dataflow state: bit 2i means
// obligation i is live (acquired, not yet discharged on this path), bit
// 2i+1 means obligation i's error binding is still the one produced by
// the acquisition (so err-branch refinement may void it).
type pairFlow struct {
	info  *types.Info
	sites []*pairSite
}

// transfer interprets one CFG node: discharges first, then loss of the
// binding, then the gen of this node's own acquisition.
func (pf *pairFlow) transfer(n ast.Node, fact bitset) {
	for i, site := range pf.sites {
		if fact.has(2*i) && dischargesSite(pf.info, n, site) {
			fact.clear(2 * i)
		}
		if fact.has(2*i+1) && n != site.stmt && assignsObj(pf.info, n, site.errObj) {
			fact.clear(2*i + 1)
		}
		if n != site.stmt && fact.has(2*i) && assignsObj(pf.info, n, site.obj) {
			// Rebinding the variable forgets the old value; the observer
			// reported it, the fact stops tracking it.
			fact.clear(2 * i)
		}
		if n == site.stmt {
			fact.set(2 * i)
			if site.errObj != nil {
				fact.set(2*i + 1)
			} else {
				fact.clear(2*i + 1)
			}
		}
	}
}

// observeNode reports mid-path losses: rebinding a variable that still
// owes a release.
func (pf *pairFlow) observeNode(pass *Pass, n ast.Node, fact bitset) {
	for i, site := range pf.sites {
		if n == site.stmt || !fact.has(2*i) {
			continue
		}
		if dischargesSite(pf.info, n, site) {
			continue
		}
		if assignsObj(pf.info, n, site.obj) {
			pass.Reportf(n.Pos(), "reassignment loses the %s result acquired at line %d before %s is called",
				site.what, pass.Fset.Position(site.pos).Line, site.release)
		}
	}
}

// refine adjusts a fact crossing a conditional edge: on the arm where
// the acquisition's own (still-live) error result is non-nil, or where
// the value itself is nil, nothing was acquired and nothing is owed.
func (pf *pairFlow) refine(e cfgEdge, fact bitset) bitset {
	pf.refineCond(e.cond, e.branch, fact)
	return fact
}

// refineCond applies what is known once cond has evaluated to branch,
// descending through short-circuit operators: on the true edge of
// `a && b` both conjuncts held; on the false edge of `a || b` both
// disjuncts failed. (The false edge of && and the true edge of || pin
// down neither operand, so they refine nothing.)
func (pf *pairFlow) refineCond(cond ast.Expr, branch bool, fact bitset) {
	switch v := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if v.Op == token.NOT {
			pf.refineCond(v.X, !branch, fact)
		}
	case *ast.BinaryExpr:
		switch v.Op {
		case token.LAND:
			if branch {
				pf.refineCond(v.X, true, fact)
				pf.refineCond(v.Y, true, fact)
			}
		case token.LOR:
			if !branch {
				pf.refineCond(v.X, false, fact)
				pf.refineCond(v.Y, false, fact)
			}
		case token.EQL, token.NEQ:
			var x ast.Expr
			switch {
			case isNilIdent(v.Y):
				x = v.X
			case isNilIdent(v.X):
				x = v.Y
			default:
				return
			}
			obj := identObj(pf.info, x)
			if obj == nil {
				return
			}
			// isNil: on this edge, x is known to be nil.
			isNil := (v.Op == token.EQL) == branch
			for i, site := range pf.sites {
				if site.errObj == obj && fact.has(2*i+1) && !isNil {
					// err != nil: the acquisition failed; nothing is owed.
					fact.clear(2 * i)
				}
				if site.obj == obj && isNil {
					// The handle itself is nil on this arm (nil-safe obs spans).
					fact.clear(2 * i)
				}
			}
		}
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil" && id.Obj == nil
}

// assignsObj reports whether node n rebinds obj: obj appears as a plain
// LHS identifier of an assignment or is redeclared by a := with obj on
// the left. Range statements that reuse the variable count too.
func assignsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch v := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if identObj(info, lhs) == obj {
					found = true
				}
			}
		case *ast.RangeStmt:
			for _, lhs := range []ast.Expr{v.Key, v.Value} {
				if lhs != nil && identObj(info, lhs) == obj {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// dischargesSite reports whether node n releases or transfers site's
// value: the release method called on it, the value passed to any call,
// returned, stored into a field/map/slice/channel/composite, assigned to
// another variable, or its address taken.
func dischargesSite(info *types.Info, n ast.Node, site *pairSite) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch v := m.(type) {
		case *ast.CallExpr:
			if c, ok := resolveCallee(info, v); ok && c.name == site.release {
				if sel, oks := ast.Unparen(v.Fun).(*ast.SelectorExpr); oks && identObj(info, sel.X) == site.obj {
					found = true
					return false
				}
			}
			for _, arg := range v.Args {
				if usesObj(info, arg, site.obj) {
					found = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				if transfersObj(info, res, site.obj) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				if _, isCall := rhs.(*ast.CallExpr); isCall {
					continue // args scanned by the CallExpr case
				}
				if !transfersObj(info, rhs, site.obj) {
					continue
				}
				if len(v.Lhs) == len(v.Rhs) {
					if id, ok := ast.Unparen(v.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
						continue // x, _ = v keeps the obligation here
					}
				}
				found = true
			}
		case *ast.CompositeLit:
			for _, el := range v.Elts {
				if transfersObj(info, el, site.obj) {
					found = true
				}
			}
		case *ast.SendStmt:
			if transfersObj(info, v.Value, site.obj) {
				found = true
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND && transfersObj(info, v.X, site.obj) {
				found = true
			}
		}
		return !found
	})
	return found
}

// transfersObj reports whether e mentions obj in a position that hands
// the value to someone else. Appearing only as the receiver of a method
// call does not count: `return b.Words()` returns a word count, not the
// buffer, so the obligation stays with the caller.
func transfersObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	if e == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, oks := ast.Unparen(call.Fun).(*ast.SelectorExpr); oks && identObj(info, sel.X) == obj {
				// Method call on obj itself: only its arguments can
				// transfer the value.
				for _, arg := range call.Args {
					if transfersObj(info, arg, obj) {
						found = true
					}
				}
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// anyDischarge reports whether any node in the body could discharge the
// site — the cheap lexical pre-check that picks the classic
// "never freed" diagnostic over per-path reports.
func anyDischarge(info *types.Info, body *ast.BlockStmt, site *pairSite) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if n == site.stmt {
			// The acquisition's own call arguments don't transfer its
			// not-yet-existing result, but its RHS is scanned below via
			// the shared walker; skip the whole statement.
			return false
		}
		if _, ok := n.(ast.Stmt); ok || isExprNode(n) {
			if dischargesSite(info, n, site) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isExprNode reports whether n is an expression node (used to bound the
// anyDischarge pre-check to meaningful roots).
func isExprNode(n ast.Node) bool {
	_, ok := n.(ast.Expr)
	return ok
}
