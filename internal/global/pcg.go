package global

import (
	"math"
	"runtime"
	"sync"

	"hybridstitch/internal/fft"
)

// This file is the parallel preconditioned conjugate-gradient engine for
// the phase-2 least-squares system. The pinned graph Laplacian of a
// plate grid is symmetric positive definite but O(√n)-conditioned, so a
// stationary sweep needs O(√n) iterations per digit; CG with a two-level
// hierarchy (coarsen tiles into super-tiles along the grid, solve the
// coarse Laplacian directly, interpolate, smooth) turns that into tens
// of iterations regardless of plate size.
//
// Parallel work (SpMV, dot products, reweighting) draws helper tokens
// from the shared fft.WorkerPool — the same budget phase-1 pair workers
// reserve from (stitch.Options.reservePairWorkers) — so a rolling
// re-solve running beside an active acquisition composes with phase 1
// instead of oversubscribing the machine.

// parRun holds worker tokens reserved from the shared transform pool for
// the duration of one solve. Reservation is best-effort: an empty pool
// (or nil on a single-core box) degrades every fan-out to an inline
// loop. Chunk boundaries depend only on the reserved count, fixed at
// construction, so every reduction within one solve combines its
// partials in a deterministic order.
type parRun struct {
	pool     *fft.WorkerPool
	reserved int
	partial  []float64 // per-chunk dot partials, len reserved+1
}

func newParRun(pool *fft.WorkerPool) *parRun {
	if pool == nil {
		pool = fft.SharedPool()
	}
	want := runtime.GOMAXPROCS(0) - 1
	if want < 0 {
		want = 0
	}
	p := &parRun{pool: pool, reserved: pool.Reserve(want)}
	p.partial = make([]float64, p.reserved+1)
	return p
}

func (p *parRun) release() {
	p.pool.Release(p.reserved)
	p.reserved = 0
}

// run executes fn over [0, n) split into reserved+1 contiguous chunks,
// one per held token plus the caller's own goroutine. Chunks below
// minChunk merge into the caller's share (goroutine handoff costs more
// than the loop it would cover).
func (p *parRun) run(n, minChunk int, fn func(lo, hi int)) {
	workers := p.reserved
	chunk := (n + workers) / (workers + 1)
	if chunk < minChunk {
		chunk = minChunk
	}
	var wg sync.WaitGroup
	lo := chunk // chunk 0 runs inline below
	for w := 0; w < workers && lo < n; w++ {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
		lo = hi
	}
	if chunk > n {
		chunk = n
	}
	fn(0, chunk)
	wg.Wait()
}

// dot computes a·b over rows [1, n) (row 0 is the pinned tile) with
// deterministic chunked partials.
func (p *parRun) dot(a, b []float64) float64 {
	n := len(a)
	workers := p.reserved
	chunk := (n + workers) / (workers + 1)
	if chunk < parMinChunk {
		chunk = parMinChunk
	}
	nChunks := (n + chunk - 1) / chunk
	var wg sync.WaitGroup
	for c := 1; c < nChunks; c++ {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			p.partial[c] = dotRange(a, b, lo, hi)
		}(c, lo, hi)
	}
	first := chunk
	if first > n {
		first = n
	}
	p.partial[0] = dotRange(a, b, 1, first)
	wg.Wait()
	var sum float64
	for c := 0; c < nChunks; c++ {
		sum += p.partial[c]
	}
	return sum
}

//stitchlint:hotpath
func dotRange(a, b []float64, lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		s += a[i] * b[i]
	}
	return s
}

// parMinChunk is the smallest row range worth a goroutine handoff.
const parMinChunk = 2048

// twoLevelPrecond is the aggregation hierarchy that applies z ← M⁻¹r on
// the pinned subspace (z[0] = 0): tiles coarsen into f×f super-tiles
// along the grid, the Galerkin coarse Laplacian (exact for a
// piecewise-constant prolongator that zeroes the pinned tile) is
// Cholesky-factored once per IRLS round, and one application runs
// damped-Jacobi pre-smooth → coarse correction → post-smooth. The
// symmetric smoother on both flanks keeps the operator SPD, which PCG
// requires of its preconditioner.
//
// Aggregates are numbered row-major on the coarse grid and couple only
// to their four grid neighbours, so the coarse Laplacian is banded with
// bandwidth cCols and its Cholesky factor fills in only inside that
// band: the factor costs O(nc·cCols²) and a solve O(nc·cCols).
type twoLevelPrecond struct {
	sys  *lsSystem
	diag []float64 // fine normal-equation diagonal (shared with pcgState)
	agg  []int32   // fine tile → coarse aggregate
	nc   int
	bw   int // coarse bandwidth: cCols
	// ac is the lower band of the coarse Laplacian, then of its Cholesky
	// factor: row c holds columns c−bw … c, the diagonal last.
	ac  []float64
	rc  []float64 // coarse residual / correction
	tmp []float64 // fine scratch
}

// twoLevelCoarseTarget bounds the coarse system size. Aggregates of
// ≈10×10 tiles at 59k keep the smoother covering intra-aggregate modes,
// and the target is what fixes the CG iteration counts. It is set for
// convergence, not bounded by the factor: the banded factor at 59k tiles
// (nc = 600, cCols = 24) is ≈0.35 M multiply-adds per round.
const twoLevelCoarseTarget = 600

// newTwoLevelPrecond picks the aggregate side f: the smallest f ≥ 2 that
// brings the coarse grid to twoLevelCoarseTarget nodes or fewer. f starts
// at 2, not 1, so a small plate still coarsens by at least 4: with f = 1
// the coarse grid is the fine grid, and every IRLS round would pay a
// banded factor of the whole plate.
func newTwoLevelPrecond(sys *lsSystem, diag []float64, rows, cols int) *twoLevelPrecond {
	n := sys.n
	f := 2
	for (rows+f-1)/f*((cols+f-1)/f) > twoLevelCoarseTarget {
		f++
	}
	cCols := (cols + f - 1) / f
	cRows := (rows + f - 1) / f
	nc := cRows * cCols
	t := &twoLevelPrecond{
		sys: sys, diag: diag,
		agg: make([]int32, n),
		nc:  nc,
		bw:  cCols,
		ac:  make([]float64, nc*(cCols+1)),
		rc:  make([]float64, nc),
		tmp: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		t.agg[i] = int32(r/f*cCols + c/f)
	}
	return t
}

// refresh rebuilds and factors the coarse Laplacian from the current
// IRLS weights; it runs once per round, after the weights and the
// normal-equation diagonal changed. The prolongator zeroes the pinned
// fine tile, so an edge touching tile 0 contributes only its grounding
// term. The edges are summed in index order, which makes the band the
// dense Galerkin matrix's lower band bit for bit.
func (t *twoLevelPrecond) refresh() {
	clear(t.ac)
	at := func(i, j int) int { return i*(t.bw+1) + j - i + t.bw }
	for i, e := range t.sys.edges {
		w := t.sys.robustW[i]
		ca, cb := int(t.agg[e.from]), int(t.agg[e.to])
		switch {
		case e.from == 0:
			t.ac[at(cb, cb)] += w
		case e.to == 0:
			t.ac[at(ca, ca)] += w
		case ca == cb:
			// Interior edge: (e_ca − e_cb) vanishes under Pᵀ.
		default:
			t.ac[at(ca, ca)] += w
			t.ac[at(cb, cb)] += w
			t.ac[at(max(ca, cb), min(ca, cb))] -= w
		}
	}
	// Aggregates with no grounded coupling (possible only on degenerate
	// inputs) become inert identity rows rather than singular pivots.
	for c := 0; c < t.nc; c++ {
		if t.ac[at(c, c)] != 0 {
			continue
		}
		for j := max(0, c-t.bw); j < c; j++ {
			t.ac[at(c, j)] = 0
		}
		for i := c + 1; i < min(t.nc, c+t.bw+1); i++ {
			t.ac[at(i, c)] = 0
		}
		t.ac[at(c, c)] = 1
	}
	bandCholesky(t.ac, t.nc, t.bw)
}

// twoLevelOmega is the damped-Jacobi smoothing weight. 2/3 is the
// classic choice that damps the upper half of the Laplacian spectrum.
const twoLevelOmega = 2.0 / 3.0

func (t *twoLevelPrecond) apply(z, r []float64, par *parRun) {
	n := t.sys.n
	diag := t.diag
	// Pre-smooth from zero: z = ω D⁻¹ r.
	par.run(n, parMinChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if d := diag[i]; d > 0 {
				z[i] = twoLevelOmega * r[i] / d
			} else {
				z[i] = 0
			}
		}
	})
	z[0] = 0
	// Coarse correction on the smoothed residual.
	par.run(n, parMinChunk, func(lo, hi int) {
		t.sys.spmvRange(t.tmp, z, diag, lo, hi)
	})
	for c := range t.rc {
		t.rc[c] = 0
	}
	for i := 1; i < n; i++ {
		t.rc[t.agg[i]] += r[i] - t.tmp[i]
	}
	bandCholeskySolve(t.ac, t.nc, t.bw, t.rc)
	for i := 1; i < n; i++ {
		z[i] += t.rc[t.agg[i]]
	}
	// Post-smooth: z += ω D⁻¹ (r − A z). Same smoother on both flanks
	// keeps M symmetric.
	par.run(n, parMinChunk, func(lo, hi int) {
		t.sys.spmvRange(t.tmp, z, diag, lo, hi)
	})
	par.run(n, parMinChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if d := diag[i]; d > 0 {
				z[i] += twoLevelOmega * (r[i] - t.tmp[i]) / d
			}
		}
	})
	z[0] = 0
}

// bandCholesky factors the SPD band matrix a (n rows of the lower band
// of width bw, row i holding columns i−bw … i with the diagonal last)
// into its lower-triangular Cholesky factor, in place. Entries outside
// the band are zero in the factor too, and every dot product runs over
// the same columns in the same order as a dense factor's non-zero terms,
// so the band equals the dense factor's band bit for bit. Non-positive
// pivots (numerically semi-definite inputs) are clamped so the factor
// stays usable as a preconditioner.
func bandCholesky(a []float64, n, bw int) {
	w := bw + 1
	for j := 0; j < n; j++ {
		rj := a[j*w : (j+1)*w] // rj[k−j+bw] = L[j][k]
		d := rj[bw]
		for k := max(0, j-bw); k < j; k++ {
			v := rj[k-j+bw]
			d -= v * v
		}
		if d < 1e-12 {
			d = 1e-12
		}
		d = math.Sqrt(d)
		rj[bw] = d
		inv := 1 / d
		for i := j + 1; i < min(n, j+w); i++ {
			ri := a[i*w : (i+1)*w]
			s := ri[j-i+bw]
			for k := max(0, i-bw); k < j; k++ {
				s -= ri[k-i+bw] * rj[k-j+bw]
			}
			ri[j-i+bw] = s * inv
		}
	}
}

// bandCholeskySolve solves L·Lᵀ·x = b in place given the factor from
// bandCholesky.
func bandCholeskySolve(l []float64, n, bw int, b []float64) {
	w := bw + 1
	for i := 0; i < n; i++ {
		ri := l[i*w : (i+1)*w]
		s := b[i]
		for k := max(0, i-bw); k < i; k++ {
			s -= ri[k-i+bw] * b[k]
		}
		b[i] = s / ri[bw]
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < min(n, i+w); k++ {
			s -= l[k*w+i-k+bw] * b[k]
		}
		b[i] = s / l[i*w+bw]
	}
}

// pcgState carries the per-solve vectors of the CG iteration, allocated
// once and reused across axes and IRLS rounds.
type pcgState struct {
	sys            *lsSystem
	diag, bx, by   []float64
	r, z, p, ap, u []float64
	pre            *twoLevelPrecond
}

func newPCGState(sys *lsSystem, rows, cols int) *pcgState {
	n := sys.n
	st := &pcgState{
		sys:  sys,
		diag: make([]float64, n),
		bx:   make([]float64, n),
		by:   make([]float64, n),
		r:    make([]float64, n),
		z:    make([]float64, n),
		p:    make([]float64, n),
		ap:   make([]float64, n),
		u:    make([]float64, n),
	}
	st.pre = newTwoLevelPrecond(sys, st.diag, rows, cols)
	return st
}

// refresh reassembles the stencil and the normal equations and
// refactors the preconditioner for the current IRLS weights.
func (st *pcgState) refresh() {
	st.sys.assemble(st.diag, st.bx, st.by)
	st.pre.refresh()
}

// solveAxis runs PCG on L·u = b − L·p for one axis, updating pos in
// place. It returns the iteration count and the largest per-tile total
// movement of the solve. It stops when the largest per-tile position
// update of an iteration falls below tol.
func (st *pcgState) solveAxis(pos, b []float64, tol float64, maxIter int, par *parRun) (int, float64) {
	n := st.sys.n
	// r = b − L·pos, restricted to the pinned subspace.
	par.run(n, parMinChunk, func(lo, hi int) {
		st.sys.spmvRange(st.ap, pos, st.diag, lo, hi)
	})
	for i := range st.u {
		st.u[i] = 0
		st.r[i] = b[i] - st.ap[i]
	}
	st.r[0] = 0
	st.pre.apply(st.z, st.r, par)
	copy(st.p, st.z)
	rz := par.dot(st.r, st.z)
	iters := 0
	for ; iters < maxIter && rz > 0; iters++ {
		par.run(n, parMinChunk, func(lo, hi int) {
			st.sys.spmvRange(st.ap, st.p, st.diag, lo, hi)
		})
		st.ap[0] = 0
		pap := par.dot(st.p, st.ap)
		if pap <= 0 {
			break
		}
		alpha := rz / pap
		var maxUpd float64
		for i := 1; i < n; i++ {
			d := alpha * st.p[i]
			st.u[i] += d
			if d < 0 {
				d = -d
			}
			if d > maxUpd {
				maxUpd = d
			}
			st.r[i] -= alpha * st.ap[i]
		}
		if maxUpd < tol {
			iters++
			break
		}
		st.pre.apply(st.z, st.r, par)
		rzNew := par.dot(st.r, st.z)
		beta := rzNew / rz
		rz = rzNew
		for i := 1; i < n; i++ {
			st.p[i] = st.z[i] + beta*st.p[i]
		}
		st.p[0] = 0
	}
	var moved float64
	for i := 1; i < n; i++ {
		pos[i] += st.u[i]
		if d := st.u[i]; d > moved {
			moved = d
		} else if -d > moved {
			moved = -d
		}
	}
	return iters, moved
}
