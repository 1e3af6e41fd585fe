package global

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"hybridstitch/internal/fft"
)

// This file keeps the serial form of the PCG vector loops — one pass
// over all rows each, in increasing index — as the oracle the chunked
// passes of pcg.go must reproduce bit for bit. Only the dot products
// were ever chunked; serialDot replays their chunk rule.

// serialChunks returns the row chunk boundaries for a solve over n rows
// with `reserved` helpers: an even split floored at parMinChunk.
func serialChunks(n, reserved int) []int {
	chunk := max((n+reserved)/(reserved+1), parMinChunk)
	bounds := []int{0}
	for hi := 0; hi < n || len(bounds) == 1; {
		hi = min(hi+chunk, n)
		bounds = append(bounds, hi)
	}
	return bounds
}

// serialDot is a·b over rows [1, n): per-chunk partials summed in chunk
// order.
func serialDot(a, b []float64, reserved int) float64 {
	bounds := serialChunks(len(a), reserved)
	var sum float64
	for c := 0; c+1 < len(bounds); c++ {
		var s float64
		for i := max(bounds[c], 1); i < bounds[c+1]; i++ {
			s += a[i] * b[i]
		}
		sum += s
	}
	return sum
}

// serialSpmv is the pinned-Laplacian product row by row.
func serialSpmv(s *lsSystem, dst, x, diag []float64) {
	for i := 0; i < s.n; i++ {
		dst[i] = s.stencilRow(x, diag, i)
	}
}

// serialApply is twoLevelPrecond.apply with every pass serial; it
// returns r·z.
func serialApply(t *twoLevelPrecond, z, r []float64, reserved int) float64 {
	n := t.sys.n
	for i := 0; i < n; i++ {
		if d := t.diag[i]; d > 0 {
			z[i] = twoLevelOmega * r[i] / d
		} else {
			z[i] = 0
		}
	}
	z[0] = 0
	serialSpmv(t.sys, t.tmp, z, t.diag)
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
	serialSpmv(t.sys, t.tmp, z, t.diag)
	for i := 0; i < n; i++ {
		if d := t.diag[i]; d > 0 {
			z[i] += twoLevelOmega * (r[i] - t.tmp[i]) / d
		}
	}
	z[0] = 0
	return serialDot(r, z, reserved)
}

// serialSolveAxis is pcgState.solveAxis with every pass serial.
func serialSolveAxis(st *pcgState, pos, b []float64, tol float64, maxIter, reserved int) (int, float64) {
	n := st.sys.n
	serialSpmv(st.sys, st.ap, pos, st.diag)
	for i := range st.u {
		st.u[i] = 0
		st.r[i] = b[i] - st.ap[i]
	}
	st.r[0] = 0
	rz := serialApply(st.pre, st.z, st.r, reserved)
	copy(st.p, st.z)
	iters := 0
	for ; iters < maxIter && rz > 0; iters++ {
		serialSpmv(st.sys, st.ap, st.p, st.diag)
		st.ap[0] = 0
		pap := serialDot(st.p, st.ap, reserved)
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
		rzNew := serialApply(st.pre, st.z, st.r, reserved)
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

// oracleSystem builds a reweighted system for a rows×cols noisy plate at
// jittered positions, assembled, with the preconditioner factored, and
// returns two independent PCG states over it plus the positions.
func oracleSystem(t *testing.T, rows, cols int) (a, b *pcgState, px []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(rows*1000 + cols)))
	res, tx, _ := noisyResult(rng, rows, cols)
	edges, _, err := buildLSEdges(res, LSOptions{}.withDefaults(rows*cols))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := newLSSystem(rows, cols, edges)
	if err != nil {
		t.Fatal(err)
	}
	px = make([]float64, len(tx))
	py := make([]float64, len(tx))
	for i := range tx {
		px[i] = float64(tx[i]) + rng.NormFloat64()
		py[i] = rng.NormFloat64()
	}
	sys.reweightRange(px, py, 4, 0, len(edges))
	a, b = newPCGState(sys, rows, cols), newPCGState(sys, rows, cols)
	a.refresh()
	b.refresh()
	return a, b, px
}

// TestTwoLevelApplyMatchesSerial checks the chunked preconditioner and
// CG step against the serial oracle with ==, on plates whose sides are
// not multiples of the aggregate side, on single-row and single-column
// plates (one coarse row, or one aggregate per coarse row), on an f = 2
// plate and at paper scale, with private pools of 0, 1 and 3 helpers.
func TestTwoLevelApplyMatchesSerial(t *testing.T) {
	for _, sz := range []struct{ rows, cols, f int }{
		{53, 61, 3}, {1, 5000, 9}, {5000, 1, 9}, {45, 47, 2}, {250, 235, 10},
	} {
		st, ref, px := oracleSystem(t, sz.rows, sz.cols)
		if nc := (sz.rows + sz.f - 1) / sz.f * ((sz.cols + sz.f - 1) / sz.f); st.pre.nc != nc {
			t.Fatalf("%dx%d: %d aggregates, want %d (side %d)", sz.rows, sz.cols, st.pre.nc, nc, sz.f)
		}
		n := st.sys.n
		rng := rand.New(rand.NewSource(int64(n)))
		r := make([]float64, n)
		for i := 1; i < n; i++ {
			r[i] = rng.NormFloat64()
		}
		for _, helpers := range []int{0, 1, 3} {
			reserved := min(helpers, runtime.GOMAXPROCS(0)-1)
			par := newParRun(fft.NewWorkerPool(helpers), n)
			if want := serialChunks(n, reserved); !slices.Equal(par.bounds, want) {
				t.Fatalf("%dx%d, %d reserved: chunks %v, want %v", sz.rows, sz.cols, reserved, par.bounds, want)
			}
			zGot, zWant := make([]float64, n), make([]float64, n)
			rzGot := st.pre.apply(zGot, r, par)
			rzWant := serialApply(ref.pre, zWant, r, reserved)
			if rzGot != rzWant || !slices.Equal(zGot, zWant) {
				t.Errorf("%dx%d, %d reserved: apply differs from the serial oracle (r·z %v, want %v)",
					sz.rows, sz.cols, reserved, rzGot, rzWant)
			}
			posGot, posWant := slices.Clone(px), slices.Clone(px)
			itGot, movedGot := st.solveAxis(posGot, st.bx, 1e-4, 2, par)
			itWant, movedWant := serialSolveAxis(ref, posWant, ref.bx, 1e-4, 2, reserved)
			par.release()
			if itGot != itWant || movedGot != movedWant || !slices.Equal(posGot, posWant) ||
				!slices.Equal(st.r, ref.r) || !slices.Equal(st.p, ref.p) || !slices.Equal(st.u, ref.u) {
				t.Errorf("%dx%d, %d reserved: solveAxis differs from the serial oracle (%d iterations, moved %v; want %d, %v)",
					sz.rows, sz.cols, reserved, itGot, movedGot, itWant, movedWant)
			}
		}
	}
}

// TestParRunOneChunkStartsNoHelper: a plate of one chunk (32×32, the
// grid-1k workload's size) keeps none of the tokens it reserved, starts
// no helper, and runs every job inline.
func TestParRunOneChunkStartsNoHelper(t *testing.T) {
	pool := fft.NewWorkerPool(3)
	before := runtime.NumGoroutine()
	par := newParRun(pool, 32*32)
	defer par.release()
	if par.helpers != 0 || pool.Free() != 3 || runtime.NumGoroutine() > before {
		t.Fatalf("one-chunk plate: %d helpers, %d of 3 tokens free, %d goroutines (was %d)",
			par.helpers, pool.Free(), runtime.NumGoroutine(), before)
	}
	var ran []int
	par.do(func(w int) { ran = append(ran, w) })
	if !slices.Equal(ran, []int{0}) {
		t.Fatalf("one-chunk plate ran chunks %v, want [0]", ran)
	}
}

// TestParRunEmptyPoolRunsInline: with every token already taken, a plate
// of many chunks degrades to one inline chunk, and the solve lands on
// the zero-helper bits.
func TestParRunEmptyPoolRunsInline(t *testing.T) {
	pool := fft.NewWorkerPool(2)
	if got := pool.Reserve(2); got != 2 {
		t.Fatalf("reserved %d of 2 tokens", got)
	}
	defer pool.Release(2)
	par := newParRun(pool, 91*91)
	if par.helpers != 0 || !slices.Equal(par.bounds, []int{0, 91 * 91}) {
		t.Fatalf("drained pool: %d helpers, chunks %v", par.helpers, par.bounds)
	}
	par.release()
	if runtime.GOARCH != "amd64" {
		return
	}
	res, _, _ := noisyResult(rand.New(rand.NewSource(91)), 91, 91)
	_, px, py, err := solveLS(res, LSOptions{Rounds: 2, Pool: pool}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashFloats(px, py); got != pinnedSolves[0].bits {
		t.Fatalf("drained pool: bits %#x, want the zero-helper pin %#x", got, pinnedSolves[0].bits)
	}
}
