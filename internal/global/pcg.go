package global

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
// Parallel work (SpMV, dot products, vector updates, restriction,
// reweighting) runs on helper tokens reserved from the shared
// fft.WorkerPool — the same budget phase-1 pair workers reserve from
// (stitch.Options.reservePairWorkers) — so a rolling re-solve running
// beside an active acquisition composes with phase 1 instead of
// oversubscribing the machine.

// parRun holds worker tokens reserved from the shared transform pool for
// the duration of one solve, and one helper goroutine per kept token.
// Reservation is best-effort: an empty pool (or nil on a single-core
// box) degrades every fan-out to an inline loop, and so does a plate of
// one chunk, which starts no helper and keeps no token.
//
// The n rows of the solve split into contiguous chunks whose boundaries
// depend only on the reserved count, fixed at construction: every
// reduction within one solve combines its per-chunk partials in chunk
// order, so the float result does not depend on scheduling. Chunk 0
// runs on the caller and chunk w on helper w.
//
// Helpers live until release. A CG iteration dispatches eight jobs of
// tens to hundreds of microseconds each, so waking a parked goroutine
// per job would cost as much as the job saves: do publishes each job by
// bumping gen, and a helper waiting for the next one spins on gen for
// up to parSpin before it parks on cond, so the serial stretches between
// rounds (assembly, the coarse factor) do not hold its core. The caller
// waits for the helpers the same way.
type parRun struct {
	pool *fft.WorkerPool
	// bounds[w], bounds[w+1] delimit chunk w.
	bounds  []int
	partial []float64 // per-chunk reduction partials
	helpers int       // len(bounds)−2; each holds one token
	spin    time.Duration

	job      func(w int)   // the current job; written before gen moves
	gen      atomic.Uint32 // bumped once per job, and once by release
	pending  atomic.Int32  // helpers still running the current job
	stop     atomic.Bool
	sleepers atomic.Int32 // goroutines parked on cond
	mu       sync.Mutex
	cond     sync.Cond
	wg       sync.WaitGroup
}

// parSpin bounds how long an idle helper, or the caller waiting for
// helpers, polls before it parks. It must cover the gaps inside a CG
// iteration — the banded coarse solve (≈30 µs at 59k tiles) and a
// lagging chunk's tail — with room to spare: a woken goroutine is queued
// on its waker's P, behind the waker's own chunk, so a wait that parks
// serialises the next job. On a 2-vCPU KVM guest a 59k-tile solve
// parked thousands of times with a 50 µs bound and a few dozen with
// 200 µs, in the serial stretches between rounds.
const parSpin = 200 * time.Microsecond

// newParRun reserves helpers for a solve over n rows and starts them.
// The chunk size is the reserved count's even split of n, floored at
// parMinChunk; tokens beyond the chunk count go straight back.
func newParRun(pool *fft.WorkerPool, n int) *parRun {
	if pool == nil {
		pool = fft.SharedPool()
	}
	reserved := pool.Reserve(max(runtime.GOMAXPROCS(0)-1, 0))
	chunk := max((n+reserved)/(reserved+1), parMinChunk)
	p := &parRun{pool: pool, bounds: []int{0}}
	for hi := 0; hi < n || len(p.bounds) == 1; {
		hi = min(hi+chunk, n)
		p.bounds = append(p.bounds, hi)
	}
	p.helpers = len(p.bounds) - 2
	pool.Release(reserved - p.helpers)
	p.partial = make([]float64, p.helpers+1)
	// Spinning pays only while every worker has a CPU of its own; on an
	// oversubscribed machine a spinning helper takes the CPU a working
	// one needs, so all waits park at once.
	if p.helpers+1 <= runtime.NumCPU() {
		p.spin = parSpin
	}
	p.cond.L = &p.mu
	p.wg.Add(p.helpers)
	for w := 1; w <= p.helpers; w++ {
		go p.helper(w)
	}
	return p
}

// release stops the helpers, waits for them to exit and returns their
// tokens to the pool.
func (p *parRun) release() {
	if p.helpers > 0 {
		p.stop.Store(true)
		p.gen.Add(1)
		p.wake()
		p.wg.Wait()
	}
	p.pool.Release(p.helpers)
	p.helpers = 0
}

// rows returns chunk w's row range.
func (p *parRun) rows(w int) (lo, hi int) { return p.bounds[w], p.bounds[w+1] }

// share returns worker w's even share of [0, m), for work whose result
// does not depend on where the split falls.
func (p *parRun) share(m, w int) (lo, hi int) {
	k := len(p.bounds) - 1
	return m * w / k, m * (w + 1) / k
}

// do runs fn(w) for every chunk w — chunk 0 on the caller, chunk w on
// helper w — and returns when all have finished.
func (p *parRun) do(fn func(w int)) {
	if p.helpers == 0 {
		fn(0)
		return
	}
	p.job = fn
	p.pending.Store(int32(p.helpers))
	p.gen.Add(1)
	p.wake()
	fn(0)
	p.await(func() bool { return p.pending.Load() == 0 })
}

// sumPartials adds the per-chunk partials in chunk order.
func (p *parRun) sumPartials() float64 {
	var s float64
	for _, v := range p.partial {
		s += v
	}
	return s
}

// maxPartials returns the largest per-chunk partial (0 if none is
// positive); a max is exact in any order.
func (p *parRun) maxPartials() float64 {
	var m float64
	for _, v := range p.partial {
		if v > m {
			m = v
		}
	}
	return m
}

// helper runs chunk w of every job until release.
func (p *parRun) helper(w int) {
	defer p.wg.Done()
	var seen uint32
	for {
		p.await(func() bool { return p.gen.Load() != seen })
		if p.stop.Load() {
			return
		}
		seen = p.gen.Load()
		p.job(w)
		if p.pending.Add(-1) == 0 {
			p.wake()
		}
	}
}

// await returns once ready holds: it polls for up to p.spin, then parks
// on cond until a wake finds it ready.
func (p *parRun) await(ready func() bool) {
	var start time.Time
	for i := 1; !ready(); i++ {
		if i%64 != 0 {
			continue
		}
		if start.IsZero() {
			start = time.Now()
			continue
		}
		if time.Since(start) < p.spin {
			continue
		}
		// Registering as a sleeper before the last check pairs with
		// wake, which changes the state before it counts sleepers: one
		// of the two always sees the other.
		p.mu.Lock()
		p.sleepers.Add(1)
		for !ready() {
			p.cond.Wait()
		}
		p.sleepers.Add(-1)
		p.mu.Unlock()
		return
	}
}

// wake rouses every parked waiter after a state change await polls.
func (p *parRun) wake() {
	if p.sleepers.Load() > 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

//stitchlint:hotpath
func dotRange(a, b []float64, lo, hi int) float64 {
	a = a[lo:hi]
	b = b[lo:hi][:len(a)]
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// parMinChunk is the smallest row range worth a chunk of its own.
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
	// fineRow0[k] is the first fine index of coarse row k: the
	// aggregates of coarse row k hold exactly the fine indices
	// [fineRow0[k], fineRow0[k+1]).
	fineRow0 []int
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
	for k := 0; k <= cRows; k++ {
		t.fineRow0 = append(t.fineRow0, min(k*f, rows)*cols)
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

// apply sets z ← M⁻¹r and returns r·z (rows 1…n−1, in the chunked
// order of every other dot product). Each pass runs on the row chunks
// except the restriction, which runs over whole coarse rows: an
// aggregate's fine tiles all lie in its coarse row, so each aggregate is
// summed by one worker in increasing fine index — the serial order —
// and the SpMV that feeds it rides the same range.
func (t *twoLevelPrecond) apply(z, r []float64, par *parRun) float64 {
	sys, diag, tmp, rc, agg := t.sys, t.diag, t.tmp, t.rc, t.agg
	// Pre-smooth from zero: z = ω D⁻¹ r.
	par.do(func(w int) {
		lo, hi := par.rows(w)
		smoothRange(z, r, diag, lo, hi)
	})
	z[0] = 0
	// Coarse correction on the smoothed residual: rc = Pᵀ(r − A z).
	cRows := len(t.fineRow0) - 1
	par.do(func(w int) {
		k0, k1 := par.share(cRows, w)
		if k0 == k1 {
			return // more workers than coarse rows
		}
		lo, hi := t.fineRow0[k0], t.fineRow0[k1]
		sys.spmvRange(tmp, z, diag, lo, hi)
		clear(rc[k0*t.bw : k1*t.bw])
		restrictRange(rc, agg, r, tmp, max(lo, 1), hi)
	})
	bandCholeskySolve(t.ac, t.nc, t.bw, rc)
	par.do(func(w int) {
		lo, hi := par.rows(w)
		prolongRange(z, rc, agg, max(lo, 1), hi)
	})
	// Post-smooth: z += ω D⁻¹ (r − A z). Same smoother on both flanks
	// keeps M symmetric.
	par.do(func(w int) {
		lo, hi := par.rows(w)
		sys.spmvRange(tmp, z, diag, lo, hi)
	})
	par.do(func(w int) {
		lo, hi := par.rows(w)
		par.partial[w] = postSmoothDotRange(z, r, tmp, diag, lo, hi)
	})
	z[0] = 0
	return par.sumPartials()
}

// smoothRange sets rows [lo, hi) of z to the damped-Jacobi step from
// zero, ω·r/d (0 where the diagonal is empty).
//
//stitchlint:hotpath
func smoothRange(z, r, diag []float64, lo, hi int) {
	z = z[lo:hi]
	r = r[lo:hi][:len(z)]
	diag = diag[lo:hi][:len(z)]
	for i, d := range diag {
		if d > 0 {
			z[i] = twoLevelOmega * r[i] / d
		} else {
			z[i] = 0
		}
	}
}

// restrictRange adds r − tmp over fine rows [lo, hi) into their
// aggregates, in increasing fine index.
//
//stitchlint:hotpath
func restrictRange(rc []float64, agg []int32, r, tmp []float64, lo, hi int) {
	agg = agg[lo:hi]
	r = r[lo:hi][:len(agg)]
	tmp = tmp[lo:hi][:len(agg)]
	for i, c := range agg {
		rc[c] += r[i] - tmp[i]
	}
}

// prolongRange adds each aggregate's coarse correction to its fine rows
// in [lo, hi).
//
//stitchlint:hotpath
func prolongRange(z, rc []float64, agg []int32, lo, hi int) {
	agg = agg[lo:hi]
	z = z[lo:hi][:len(agg)]
	for i, c := range agg {
		z[i] += rc[c]
	}
}

// postSmoothDotRange applies the post-smooth z += ω(r − tmp)/d to rows
// [lo, hi) and returns r·z over the same rows, row 0 excluded: the same
// terms in the same order as dotRange after a separate pass.
//
//stitchlint:hotpath
func postSmoothDotRange(z, r, tmp, diag []float64, lo, hi int) float64 {
	if lo == 0 && hi > 0 {
		if d := diag[0]; d > 0 {
			z[0] += twoLevelOmega * (r[0] - tmp[0]) / d
		}
		lo = 1
	}
	z = z[lo:hi]
	r = r[lo:hi][:len(z)]
	tmp = tmp[lo:hi][:len(z)]
	diag = diag[lo:hi][:len(z)]
	var s float64
	for i, d := range diag {
		if d > 0 {
			z[i] += twoLevelOmega * (r[i] - tmp[i]) / d
		}
		s += r[i] * z[i]
	}
	return s
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
// update of an iteration falls below tol. Every vector pass runs on the
// row chunks; the SpMV and the p·Ap product share one pass.
func (st *pcgState) solveAxis(pos, b []float64, tol float64, maxIter int, par *parRun) (int, float64) {
	sys, diag := st.sys, st.diag
	r, z, p, ap, u := st.r, st.z, st.p, st.ap, st.u
	// r = b − L·pos, restricted to the pinned subspace.
	par.do(func(w int) {
		lo, hi := par.rows(w)
		sys.spmvRange(ap, pos, diag, lo, hi)
		residualRange(r, u, b, ap, lo, hi)
	})
	r[0] = 0
	rz := st.pre.apply(z, r, par)
	par.do(func(w int) {
		lo, hi := par.rows(w)
		copy(p[lo:hi], z[lo:hi])
	})
	var alpha, beta float64
	iters := 0
	for ; iters < maxIter && rz > 0; iters++ {
		par.do(func(w int) {
			lo, hi := par.rows(w)
			sys.spmvRange(ap, p, diag, lo, hi)
			par.partial[w] = dotRange(p, ap, max(lo, 1), hi)
		})
		ap[0] = 0
		pap := par.sumPartials()
		if pap <= 0 {
			break
		}
		alpha = rz / pap
		par.do(func(w int) {
			lo, hi := par.rows(w)
			par.partial[w] = stepRange(u, r, p, ap, alpha, max(lo, 1), hi)
		})
		if par.maxPartials() < tol {
			iters++
			break
		}
		rzNew := st.pre.apply(z, r, par)
		beta = rzNew / rz
		rz = rzNew
		par.do(func(w int) {
			lo, hi := par.rows(w)
			directionRange(p, z, beta, max(lo, 1), hi)
		})
		p[0] = 0
	}
	par.do(func(w int) {
		lo, hi := par.rows(w)
		par.partial[w] = moveRange(pos, u, max(lo, 1), hi)
	})
	return iters, par.maxPartials()
}

// residualRange sets rows [lo, hi) of r to b − ap and of u to 0.
//
//stitchlint:hotpath
func residualRange(r, u, b, ap []float64, lo, hi int) {
	clear(u[lo:hi])
	r = r[lo:hi]
	b = b[lo:hi][:len(r)]
	ap = ap[lo:hi][:len(r)]
	for i := range r {
		r[i] = b[i] - ap[i]
	}
}

// stepRange takes the CG step over rows [lo, hi): u += α·p, r −= α·Ap.
// It returns the largest |α·p[i]|, the per-iteration update the stop
// rule reads.
//
//stitchlint:hotpath
func stepRange(u, r, p, ap []float64, alpha float64, lo, hi int) float64 {
	p = p[lo:hi]
	u = u[lo:hi][:len(p)]
	r = r[lo:hi][:len(p)]
	ap = ap[lo:hi][:len(p)]
	var maxUpd float64
	for i, v := range p {
		d := alpha * v
		u[i] += d
		if d < 0 {
			d = -d
		}
		if d > maxUpd {
			maxUpd = d
		}
		r[i] -= alpha * ap[i]
	}
	return maxUpd
}

// directionRange sets rows [lo, hi) of the search direction to z + β·p.
//
//stitchlint:hotpath
func directionRange(p, z []float64, beta float64, lo, hi int) {
	p = p[lo:hi]
	z = z[lo:hi][:len(p)]
	for i, v := range p {
		p[i] = z[i] + beta*v
	}
}

// moveRange adds the solve's update u to pos over rows [lo, hi) and
// returns the largest |u[i]|.
//
//stitchlint:hotpath
func moveRange(pos, u []float64, lo, hi int) float64 {
	u = u[lo:hi]
	pos = pos[lo:hi][:len(u)]
	var moved float64
	for i, d := range u {
		pos[i] += d
		if d > moved {
			moved = d
		} else if -d > moved {
			moved = -d
		}
	}
	return moved
}
