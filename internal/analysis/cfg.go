package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the flow-sensitive core of the analysis package: a
// lightweight intra-function control-flow graph over the typed AST plus
// a worklist fixpoint driver for bitset-valued dataflow facts. The
// path-sensitive analyzers (pairguard, lockorder) are built on it; the
// lexical ones (blockinglock, obsnames, hotpath) do not need it and keep
// their single-pass walks.
//
// The CFG is deliberately statement-grained: each basic block holds the
// statements (and branch-condition expressions) that execute on entry to
// it, in order, and analyzers interpret each node themselves. Branch
// edges carry the controlling condition and its polarity so analyzers
// can refine facts along `if err != nil` / `if v == nil` splits — the
// error-path sensitivity that separates these checks from their
// syntactic predecessors.

// termKind classifies how a block leaves the function, when it does.
type termKind int

const (
	termNone   termKind = iota // falls through to successors
	termReturn                 // explicit return statement
	termPanic                  // explicit call of the panic builtin
	termEnd                    // implicit fall off the end of the body
	termGoto                   // unresolved goto: analyzed conservatively
)

// cfgEdge is one control transfer. When cond is non-nil the edge is the
// `branch` outcome of evaluating cond (true edge or false edge of an if
// or a loop condition); analyzers may use it to refine facts.
type cfgEdge struct {
	to     *cfgBlock
	cond   ast.Expr
	branch bool
}

// cfgBlock is one basic block.
type cfgBlock struct {
	index int
	nodes []ast.Node // statements and condition expressions, in order
	edges []cfgEdge
	term  termKind
	// termNode is the return statement or panic call for termReturn and
	// termPanic blocks; nil otherwise.
	termNode ast.Node
}

// addEdge links b to dst.
func (b *cfgBlock) addEdge(dst *cfgBlock, cond ast.Expr, branch bool) {
	b.edges = append(b.edges, cfgEdge{to: dst, cond: cond, branch: branch})
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	entry  *cfgBlock
	blocks []*cfgBlock
	// end is the position reported for termEnd leaks: the body's closing
	// brace.
	end token.Pos
}

// loopCtx tracks the jump targets a loop (or switch/select, for break)
// establishes.
type loopCtx struct {
	label      string
	breakTo    *cfgBlock
	continueTo *cfgBlock // nil for switch/select contexts
}

// cfgBuilder incrementally constructs a funcCFG.
type cfgBuilder struct {
	g     *funcCFG
	loops []loopCtx
}

// buildCFG constructs the CFG of body. It handles the full statement
// grammar the repo uses — if/else chains, for and range loops,
// (type) switches with fallthrough, select, labeled break/continue,
// defer, go — and degrades conservatively on goto (the jump is treated
// as leaving the function without triggering exit checks, so goto-heavy
// code produces no false positives at the cost of coverage).
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{g: &funcCFG{end: body.End()}}
	entry := b.newBlock()
	b.g.entry = entry
	last := b.stmts(entry, body.List)
	if last != nil {
		last.term = termEnd
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// stmts threads the statement list through cur, returning the block
// where control continues (nil when every path has left the function or
// jumped away).
func (b *cfgBuilder) stmts(cur *cfgBlock, list []ast.Stmt) *cfgBlock {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after a terminator; skip (go vet flags it).
			return nil
		}
		cur = b.stmt(cur, s, "")
	}
	return cur
}

// findLoop resolves a break/continue target. label is "" for the
// innermost context; continue skips non-loop (switch/select) contexts.
func (b *cfgBuilder) findLoop(label string, isContinue bool) *loopCtx {
	for i := len(b.loops) - 1; i >= 0; i-- {
		lc := &b.loops[i]
		if isContinue && lc.continueTo == nil {
			continue
		}
		if label == "" || lc.label == label {
			return lc
		}
	}
	return nil
}

// isPanicCall reports whether s is a statement-level call of the panic
// builtin.
func isPanicCall(s ast.Stmt) (ast.Node, bool) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && id.Obj == nil {
		return call, true
	}
	return nil, false
}

// stmt appends one statement to cur, splitting blocks at control flow.
// label is the pending label when s was wrapped in a LabeledStmt.
func (b *cfgBuilder) stmt(cur *cfgBlock, s ast.Stmt, label string) *cfgBlock {
	switch st := s.(type) {
	case *ast.LabeledStmt:
		return b.stmt(cur, st.Stmt, st.Label.Name)

	case *ast.BlockStmt:
		return b.stmts(cur, st.List)

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, st)
		cur.term = termReturn
		cur.termNode = st
		return nil

	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			if lc := b.findLoop(labelName(st.Label), false); lc != nil {
				cur.addEdge(lc.breakTo, nil, false)
			}
			return nil
		case token.CONTINUE:
			if lc := b.findLoop(labelName(st.Label), true); lc != nil {
				cur.addEdge(lc.continueTo, nil, false)
			}
			return nil
		case token.GOTO:
			cur.term = termGoto
			return nil
		case token.FALLTHROUGH:
			// Handled structurally by the switch builder; a stray
			// fallthrough would not compile.
			return cur
		}
		return cur

	case *ast.IfStmt:
		if st.Init != nil {
			cur.nodes = append(cur.nodes, st.Init)
		}
		cur.nodes = append(cur.nodes, st.Cond)
		join := b.newBlock()
		then := b.newBlock()
		cur.addEdge(then, st.Cond, true)
		if last := b.stmts(then, st.Body.List); last != nil {
			last.addEdge(join, nil, false)
		}
		if st.Else != nil {
			els := b.newBlock()
			cur.addEdge(els, st.Cond, false)
			if last := b.stmt(els, st.Else, ""); last != nil {
				last.addEdge(join, nil, false)
			}
		} else {
			cur.addEdge(join, st.Cond, false)
		}
		return join

	case *ast.ForStmt:
		if st.Init != nil {
			cur.nodes = append(cur.nodes, st.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		post := b.newBlock()
		join := b.newBlock()
		cur.addEdge(head, nil, false)
		if st.Cond != nil {
			head.nodes = append(head.nodes, st.Cond)
			head.addEdge(body, st.Cond, true)
			head.addEdge(join, st.Cond, false)
		} else {
			head.addEdge(body, nil, false)
		}
		b.loops = append(b.loops, loopCtx{label: label, breakTo: join, continueTo: post})
		if last := b.stmts(body, st.Body.List); last != nil {
			last.addEdge(post, nil, false)
		}
		b.loops = b.loops[:len(b.loops)-1]
		if st.Post != nil {
			post.nodes = append(post.nodes, st.Post)
		}
		post.addEdge(head, nil, false)
		return join

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		join := b.newBlock()
		cur.addEdge(head, nil, false)
		// The range statement itself carries the iteration variables and
		// the ranged expression; analyzers see it once per analysis, which
		// is enough for gen/kill purposes.
		head.nodes = append(head.nodes, st)
		head.addEdge(body, nil, false)
		head.addEdge(join, nil, false)
		b.loops = append(b.loops, loopCtx{label: label, breakTo: join, continueTo: head})
		if last := b.stmts(body, st.Body.List); last != nil {
			last.addEdge(head, nil, false)
		}
		b.loops = b.loops[:len(b.loops)-1]
		return join

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var tag ast.Node
		var clauses []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			init, clauses = sw.Init, sw.Body.List
			if sw.Tag != nil {
				tag = sw.Tag
			}
		case *ast.TypeSwitchStmt:
			init, clauses = sw.Init, sw.Body.List
			tag = sw.Assign
		}
		if init != nil {
			cur.nodes = append(cur.nodes, init)
		}
		if tag != nil {
			cur.nodes = append(cur.nodes, tag)
		}
		join := b.newBlock()
		b.loops = append(b.loops, loopCtx{label: label, breakTo: join})
		hasDefault := false
		// Build case bodies first so fallthrough can link clause i to
		// clause i+1's body.
		bodies := make([]*cfgBlock, len(clauses))
		for i, cl := range clauses {
			cc, ok := cl.(*ast.CaseClause)
			if !ok {
				continue
			}
			bodies[i] = b.newBlock()
			if len(cc.List) == 0 {
				hasDefault = true
			}
			for _, e := range cc.List {
				bodies[i].nodes = append(bodies[i].nodes, e)
			}
			cur.addEdge(bodies[i], nil, false)
		}
		for i, cl := range clauses {
			cc, ok := cl.(*ast.CaseClause)
			if !ok || bodies[i] == nil {
				continue
			}
			stmts := cc.Body
			fallsTo := -1
			if n := len(stmts); n > 0 {
				if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					stmts = stmts[:n-1]
					fallsTo = i + 1
				}
			}
			last := b.stmts(bodies[i], stmts)
			if last == nil {
				continue
			}
			if fallsTo >= 0 && fallsTo < len(bodies) && bodies[fallsTo] != nil {
				last.addEdge(bodies[fallsTo], nil, false)
			} else {
				last.addEdge(join, nil, false)
			}
		}
		b.loops = b.loops[:len(b.loops)-1]
		if !hasDefault {
			cur.addEdge(join, nil, false)
		}
		return join

	case *ast.SelectStmt:
		join := b.newBlock()
		b.loops = append(b.loops, loopCtx{label: label, breakTo: join})
		any := false
		for _, cl := range st.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			any = true
			blk := b.newBlock()
			if cc.Comm != nil {
				blk.nodes = append(blk.nodes, cc.Comm)
			}
			cur.addEdge(blk, nil, false)
			if last := b.stmts(blk, cc.Body); last != nil {
				last.addEdge(join, nil, false)
			}
		}
		b.loops = b.loops[:len(b.loops)-1]
		if !any {
			// select{} blocks forever.
			cur.term = termEnd
			return nil
		}
		return join

	default:
		if node, ok := isPanicCall(s); ok {
			cur.nodes = append(cur.nodes, s)
			cur.term = termPanic
			cur.termNode = node
			return nil
		}
		// Straight-line statement: assignment, expression, declaration,
		// defer, go, send, inc/dec, empty.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

func labelName(id *ast.Ident) string {
	if id == nil {
		return ""
	}
	return id.Name
}

// ---- bitset facts ----

// bitset is a fixed-width bit vector dataflow fact.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) set(i int)      { s[i/64] |= 1 << (i % 64) }
func (s bitset) clear(i int)    { s[i/64] &^= 1 << (i % 64) }
func (s bitset) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

func (s bitset) clone() bitset {
	c := make(bitset, len(s))
	copy(c, s)
	return c
}

func (s bitset) equal(o bitset) bool {
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// unionWith ors o into s, reporting whether s changed.
func (s bitset) unionWith(o bitset) bool {
	changed := false
	for i := range s {
		if n := s[i] | o[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

func (s bitset) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// ---- fixpoint driver ----

// dataflow runs a forward may-analysis (union meet) to fixpoint over the
// CFG: in[entry] = init, in[B] = ⋃ out(pred edges), out = edge-refined
// block transfer. transfer interprets one node; refine (optional)
// adjusts a fact crossing a conditional edge. The result holds the
// stabilized in-facts per block, which observers re-walk.
type dataflow struct {
	cfg      *funcCFG
	nbits    int
	transfer func(n ast.Node, fact bitset)       // mutates fact in place
	refine   func(e cfgEdge, fact bitset) bitset // may return fact unchanged
	init     bitset
}

// run iterates to fixpoint and returns in-facts indexed by block index.
func (d *dataflow) run() []bitset {
	in := make([]bitset, len(d.cfg.blocks))
	for i := range in {
		in[i] = newBitset(d.nbits)
	}
	if d.init != nil {
		copy(in[d.cfg.entry.index], d.init)
	}
	work := []*cfgBlock{d.cfg.entry}
	queued := make([]bool, len(d.cfg.blocks))
	queued[d.cfg.entry.index] = true
	reached := make([]bool, len(d.cfg.blocks))
	reached[d.cfg.entry.index] = true
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk.index] = false
		out := in[blk.index].clone()
		for _, n := range blk.nodes {
			d.transfer(n, out)
		}
		for _, e := range blk.edges {
			eo := out
			if d.refine != nil && e.cond != nil {
				eo = d.refine(e, out.clone())
			}
			changed := in[e.to.index].unionWith(eo)
			if first := !reached[e.to.index]; changed || first {
				reached[e.to.index] = true
				if !queued[e.to.index] {
					queued[e.to.index] = true
					work = append(work, e.to)
				}
			}
		}
	}
	return in
}
