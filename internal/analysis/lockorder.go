package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder is the whole-program lock-ordering analysis. It harvests
// every sync.Mutex/RWMutex Lock/RLock site across the loaded packages,
// keys each mutex by the named type that owns it (e.g.
// "memgov.Governor.mu", "pipeline.Queue.mu" — the identity that
// survives across instances and packages), and builds the program's
// lock-ordering graph: an edge A→B means some path acquires B while
// holding A, either directly or through a statically-resolved call
// chain. It reports:
//
//   - cycles in the graph (A→B somewhere, B→A somewhere else: two
//     goroutines taking the two orders can deadlock);
//   - lock-held calls into functions that (transitively) lock the same
//     mutex type — self-deadlock for Go's non-reentrant mutexes, and for
//     RLock a deadlock the moment a writer is queued between the two
//     read acquisitions.
//
// Held-ness is computed flow-sensitively on the CFG (may-held: a lock
// held on any path into a node counts, the conservative direction for
// deadlock detection). A deferred Unlock keeps the mutex held to the end
// of the function, exactly like the runtime. Function literals are
// analyzed as their own scopes — a callback does not necessarily run
// under the lock — but the locks they take still contribute to the
// enclosing function's transitive summary, because the common case
// (the literal runs synchronously or on a goroutine the holder waits
// on) is the dangerous one. A `go` statement's callee is treated the
// same way: at the spawn site it orders against none of the held locks
// (the new goroutine holds none of them), while its receiver and
// argument expressions, which the spawner evaluates, still do; its
// locks still join the spawner's summary, as a literal's do.
//
// Mutexes held behind locally-declared variables are ignored: their
// ordering cannot be observed outside one function and keying them
// would only produce noise.
var LockOrder = &Analyzer{
	Name:       "lockorder",
	Doc:        "the cross-package lock-ordering graph must be acyclic, and no lock-held call may re-lock the same mutex type",
	RunProgram: runLockOrder,
}

// lockKey names a mutex by its owning named type (or package-level
// variable) plus field path: "memgov.Governor.mu", "obs.Recorder.storeMu".
func lockKeyOf(info *types.Info, recv ast.Expr) (string, bool) {
	switch v := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		// pkg.Var style: package-level mutex accessed through an import.
		if id, ok := ast.Unparen(v.X).(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Name() + "." + v.Sel.Name, true
			}
		}
		t := info.TypeOf(v.X)
		if t == nil {
			return "", false
		}
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "", false
		}
		obj := named.Origin().Obj() // collapse generic instantiations
		if obj.Pkg() == nil {
			return "", false
		}
		return obj.Pkg().Name() + "." + obj.Name() + "." + v.Sel.Name, true
	case *ast.Ident:
		// A bare identifier: package-level mutex var, embedded mutex on a
		// method receiver, or a local (ignored).
		obj := info.Uses[v]
		if obj == nil {
			return "", false
		}
		if vr, ok := obj.(*types.Var); ok && vr.Parent() == vr.Pkg().Scope() {
			return vr.Pkg().Name() + "." + vr.Name(), true
		}
		return "", false
	}
	return "", false
}

// lockOp classifies call as a (R)Lock/(R)Unlock on a keyed mutex.
func lockOp(info *types.Info, call *ast.CallExpr) (key, op string, ok bool) {
	c, okc := resolveCallee(info, call)
	if !okc || c.pkgPath != syncPkg || (c.recv != "Mutex" && c.recv != "RWMutex") {
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
	k, okk := lockKeyOf(info, sel.X)
	if !okk {
		return "", "", false
	}
	return k, c.name, true
}

// lockEdge is one observed ordering: to was acquired (or may be acquired
// through callee) while from was held.
type lockEdge struct {
	from, to string
	pos      token.Position
	via      string // non-empty for call-mediated edges: the callee name
}

// lockScope is one analyzed function body (declaration or literal).
type lockScope struct {
	pkg  *Package
	fn   *types.Func // nil for function literals
	name string      // diagnostic name
	body *ast.BlockStmt
}

func runLockOrder(prog *Program) error {
	// Collect every function body in the program, declarations and
	// literals, with their packages.
	var scopes []lockScope
	declOf := map[*types.Func]*lockScope{}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				scopes = append(scopes, lockScope{pkg: pkg, fn: fn, name: scopeName(pkg, fn, fd), body: fd.Body})
				if fn != nil {
					declOf[fn] = &scopes[len(scopes)-1]
				}
			}
		}
	}

	// Direct lock sets per function (including nested literals: they may
	// run on the caller's goroutine), for the transitive summaries.
	direct := map[*types.Func]map[string]bool{}
	calls := map[*types.Func]map[*types.Func]bool{}
	for _, sc := range scopes {
		if sc.fn == nil {
			continue
		}
		dl, cl := map[string]bool{}, map[*types.Func]bool{}
		ast.Inspect(sc.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, op, ok := lockOp(sc.pkg.TypesInfo, call); ok && (op == "Lock" || op == "RLock") {
				dl[key] = true
				return true
			}
			if callee := staticCallee(sc.pkg.TypesInfo, call); callee != nil {
				if _, known := declOf[callee]; known {
					cl[callee] = true
				}
			}
			return true
		})
		direct[sc.fn], calls[sc.fn] = dl, cl
	}

	// Transitive may-lock summaries: fixpoint over the static call graph.
	summary := map[*types.Func]map[string]bool{}
	for fn, dl := range direct {
		s := map[string]bool{}
		for k := range dl {
			s[k] = true
		}
		summary[fn] = s
	}
	for changed := true; changed; {
		changed = false
		for fn, cl := range calls {
			s := summary[fn]
			for callee := range cl {
				for k := range summary[callee] {
					if !s[k] {
						s[k] = true
						changed = true
					}
				}
			}
		}
	}

	// Flow-sensitive held-set walk per scope, harvesting ordering edges
	// and self-deadlocks. Keys are interned into bit indices.
	keyIDs := map[string]int{}
	keyNames := []string{}
	intern := func(k string) int {
		if id, ok := keyIDs[k]; ok {
			return id
		}
		keyIDs[k] = len(keyNames)
		keyNames = append(keyNames, k)
		return len(keyNames) - 1
	}
	for _, sc := range scopes {
		ast.Inspect(sc.body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if key, op, ok := lockOp(sc.pkg.TypesInfo, call); ok && (op == "Lock" || op == "RLock") {
					intern(key)
				}
			}
			return true
		})
	}
	if len(keyNames) == 0 {
		return nil
	}

	seenEdge := map[[2]string]bool{}
	var edges []lockEdge
	for _, sc := range scopes {
		ls := &lockWalker{
			prog: prog, sc: sc, keyIDs: keyIDs, keyNames: keyNames,
			declOf: declOf, summary: summary,
			seenEdge: seenEdge,
		}
		ls.walk(&edges)
		// Function literals get their own scope walk so a callback's locks
		// are not attributed to the enclosing critical section.
		ast.Inspect(sc.body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				lw := &lockWalker{
					prog: prog, sc: lockScope{pkg: sc.pkg, name: sc.name + " (func literal)", body: fl.Body},
					keyIDs: keyIDs, keyNames: keyNames, declOf: declOf, summary: summary,
					seenEdge: seenEdge,
				}
				lw.walk(&edges)
				return false
			}
			return true
		})
	}

	reportLockFindings(prog, edges)
	return nil
}

// scopeName renders a diagnostic-friendly function name.
func scopeName(pkg *Package, fn *types.Func, fd *ast.FuncDecl) string {
	if fn == nil {
		return pkg.Types.Name() + "." + fd.Name.Name
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return pkg.Types.Name() + "." + name
}

// staticCallee resolves a call to a concrete function or method with a
// body we might know; interface dispatch returns nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	c, ok := resolveCalleeObj(info, call)
	if !ok {
		return nil
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		// Interface method call: the static target is unknowable here.
		if s, ok := info.Selections[sel]; ok {
			if _, isIface := s.Recv().Underlying().(*types.Interface); isIface {
				return nil
			}
		}
	}
	return c
}

// resolveCalleeObj returns the *types.Func a call invokes.
func resolveCalleeObj(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.Ident:
		obj = info.Uses[fun]
	default:
		return nil, false
	}
	fn, ok := obj.(*types.Func)
	return fn, ok
}

// lockWalker runs the may-held dataflow over one scope and harvests
// edges.
type lockWalker struct {
	prog     *Program
	sc       lockScope
	keyIDs   map[string]int
	keyNames []string
	declOf   map[*types.Func]*lockScope
	summary  map[*types.Func]map[string]bool
	seenEdge map[[2]string]bool
}

func (lw *lockWalker) walk(edges *[]lockEdge) {
	cfg := buildCFG(lw.sc.body)
	df := &dataflow{
		cfg:      cfg,
		nbits:    len(lw.keyNames),
		transfer: lw.transfer,
	}
	in := df.run()
	for _, blk := range cfg.blocks {
		fact := in[blk.index].clone()
		for _, n := range blk.nodes {
			lw.observe(n, fact, edges)
			lw.transfer(n, fact)
		}
	}
}

// transfer updates the held set across one node. Deferred unlocks do not
// release (the mutex stays held to function exit); function literal
// bodies are opaque at this level.
func (lw *lockWalker) transfer(n ast.Node, fact bitset) {
	deferred := false
	if ds, ok := n.(*ast.DeferStmt); ok {
		deferred = true
		n = ds.Call
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, op, ok := lockOp(lw.sc.pkg.TypesInfo, call)
		if !ok {
			return true
		}
		id := lw.keyIDs[key]
		switch op {
		case "Lock", "RLock":
			if !deferred {
				fact.set(id)
			}
		case "Unlock", "RUnlock":
			if !deferred {
				fact.clear(id)
			}
		}
		return true
	})
}

// observe harvests ordering edges and self-deadlocks at n given the
// locks held on entry to n.
func (lw *lockWalker) observe(n ast.Node, fact bitset, edges *[]lockEdge) {
	if fact.empty() {
		return
	}
	info := lw.sc.pkg.TypesInfo
	if ds, ok := n.(*ast.DeferStmt); ok {
		n = ds.Call // a deferred call still runs; its locks still order
	}
	var visit func(m ast.Node) bool
	visit = func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if gs, ok := m.(*ast.GoStmt); ok {
			// The spawned call runs on a new goroutine that holds none of
			// the spawner's locks, so neither it nor its summary orders
			// against them. Its operands (receiver, arguments, a computed
			// function value) are evaluated here, under the held set.
			switch fun := ast.Unparen(gs.Call.Fun).(type) {
			case *ast.Ident, *ast.FuncLit:
			case *ast.SelectorExpr:
				ast.Inspect(fun.X, visit)
			default:
				ast.Inspect(fun, visit)
			}
			for _, a := range gs.Call.Args {
				ast.Inspect(a, visit)
			}
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, op, ok := lockOp(info, call); ok && (op == "Lock" || op == "RLock") {
			id := lw.keyIDs[key]
			for h := 0; h < len(lw.keyNames); h++ {
				if !fact.has(h) {
					continue
				}
				if h == id {
					lw.prog.Reportf(call.Pos(),
						"lockorder", "%s on %s while %s is already held in %s: recursive locking deadlocks (RLock included, once a writer queues)",
						op, key, key, lw.sc.name)
					continue
				}
				lw.addEdge(edges, lockEdge{from: lw.keyNames[h], to: key,
					pos: lw.prog.Fset.Position(call.Pos())})
			}
			return true
		}
		callee := staticCallee(info, call)
		if callee == nil {
			return true
		}
		sum := lw.summary[callee]
		if len(sum) == 0 {
			return true
		}
		calleeName := callee.Name()
		if dl, ok := lw.declOf[callee]; ok {
			calleeName = dl.name
		}
		for h := 0; h < len(lw.keyNames); h++ {
			if !fact.has(h) {
				continue
			}
			held := lw.keyNames[h]
			for k := range sum {
				if k == held {
					lw.prog.Reportf(call.Pos(),
						"lockorder", "call to %s while holding %s: the callee (transitively) locks %s — self-deadlock",
						calleeName, held, held)
					continue
				}
				lw.addEdge(edges, lockEdge{from: held, to: k,
					pos: lw.prog.Fset.Position(call.Pos()), via: calleeName})
			}
		}
		return true
	}
	ast.Inspect(n, visit)
}

func (lw *lockWalker) addEdge(edges *[]lockEdge, e lockEdge) {
	k := [2]string{e.from, e.to}
	if lw.seenEdge[k] {
		return
	}
	lw.seenEdge[k] = true
	*edges = append(*edges, e)
}

// reportLockFindings finds cycles in the ordering graph and reports each
// once, with every participating edge's witness position.
func reportLockFindings(prog *Program, edges []lockEdge) {
	adj := map[string][]lockEdge{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e)
	}
	// Tarjan SCC over the keyed nodes.
	nodes := make([]string, 0, len(adj))
	seen := map[string]bool{}
	for _, e := range edges {
		for _, n := range []string{e.from, e.to} {
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Strings(nodes)
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range adj[v] {
			w := e.to
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}
	for _, scc := range sccs {
		sort.Strings(scc)
		in := map[string]bool{}
		for _, n := range scc {
			in[n] = true
		}
		var witnesses []string
		var pos token.Position
		for _, e := range edges {
			if in[e.from] && in[e.to] {
				w := fmt.Sprintf("%s→%s at %s", e.from, e.to, trimPos(e.pos))
				if e.via != "" {
					w += " (via " + e.via + ")"
				}
				witnesses = append(witnesses, w)
				if pos.Line == 0 || e.pos.Filename < pos.Filename ||
					(e.pos.Filename == pos.Filename && e.pos.Line < pos.Line) {
					pos = e.pos
				}
			}
		}
		sort.Strings(witnesses)
		prog.ReportfAt(pos, "lockorder",
			"lock-order cycle among {%s}: %s — two goroutines taking these orders deadlock",
			strings.Join(scc, ", "), strings.Join(witnesses, "; "))
	}
}

// trimPos renders a position with a basename-only file for compact cycle
// witness lists.
func trimPos(p token.Position) string {
	f := p.Filename
	if i := strings.LastIndexByte(f, '/'); i >= 0 {
		f = f[i+1:]
	}
	return fmt.Sprintf("%s:%d", f, p.Line)
}
