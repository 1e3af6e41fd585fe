package fft

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hybridstitch/internal/analysis/leaktest"
)

// This file is the differential/property wall for the split rule. A
// split only repartitions the row/column loops — every 1-D transform
// sees the same data in the same order — so the contract throughout is
// exact (==) equality with the serial path, not a tolerance.

// forkH×forkW is a frame at or above splitFloor: a default plan over a
// pool with a free token forks its passes for real (should the floor
// move above it, TestSplitRuleReadsThePoolPerCall fails).
const forkH, forkW = 256, 384

// execSizes mixes odd, prime and power-of-two shapes below the split
// floor, which never fork, with one frame at or above it.
var execSizes = []struct{ h, w int }{
	{9, 15},        // odd × odd
	{13, 17},       // prime × prime
	{16, 16},       // power of two
	{64, 96},       // multi-block, below the floor
	{forkH, forkW}, // at or above splitFloor: default calls fork
}

// execOpts is the execution axis: the never-fork path and the default
// rule.
var execOpts = []ExecStrategy{ExecSerial, ExecAuto}

// execPools is the worker-budget axis: empty (the rule never forks),
// one helper, and a machine's worth.
func execPools(t *testing.T) []*WorkerPool {
	t.Helper()
	pools := []*WorkerPool{NewWorkerPool(0), NewWorkerPool(1), NewWorkerPool(runtime.NumCPU())}
	t.Cleanup(func() {
		for _, p := range pools {
			p.Close()
		}
	})
	return pools
}

// execMatrix is the full execution axis as plan options: {serial,
// default} × the execPools budgets.
func execMatrix(t *testing.T) []Plan2DOpts {
	t.Helper()
	var opts []Plan2DOpts
	for _, pool := range execPools(t) {
		for _, exec := range execOpts {
			opts = append(opts, Plan2DOpts{Exec: exec, Pool: pool})
		}
	}
	return opts
}

// TestExecMatrixBitIdentical runs the complex-plan execution matrix —
// {serial, default} × pool budgets {0, 1, NumCPU} × both directions —
// and requires bit-identical output to the row-then-column oracle.
func TestExecMatrixBitIdentical(t *testing.T) {
	for _, sz := range execSizes {
		for _, dir := range []Direction{Forward, Inverse} {
			src := randComplex(sz.h*sz.w, int64(sz.h*100+sz.w))
			want := oracle2D(t, src, sz.h, sz.w, dir)
			for _, opts := range execMatrix(t) {
				p, err := NewPlan2D(sz.h, sz.w, dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				got := append([]complex128(nil), src...)
				if err := p.Execute(got); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%dx%d dir=%v exec=%d/cap=%d: element %d differs: got %v want %v",
							sz.h, sz.w, dir, opts.Exec, opts.Pool.Cap(), i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestRealExecMatrixBitIdentical is the r2c counterpart: Forward
// spectra and Inverse reconstructions under every execution shape must
// equal the oracle exactly.
func TestRealExecMatrixBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sz := range execSizes {
		img := make([]float64, sz.h*sz.w)
		for i := range img {
			img[i] = rng.NormFloat64()
		}
		want := oracleRealForward(t, img, sz.h, sz.w)
		wantRec := oracleRealInverse(t, want, sz.h, sz.w)
		sh, sw := sz.h, sz.w/2+1
		for _, opts := range execMatrix(t) {
			label := fmt.Sprintf("%dx%d exec=%d/cap=%d", sz.h, sz.w, opts.Exec, opts.Pool.Cap())
			p, err := NewRealPlan2DOpts(sz.h, sz.w, Real2DOpts{Exec: opts.Exec, Pool: opts.Pool})
			if err != nil {
				t.Fatal(err)
			}
			spec := make([]complex128, sh*sw)
			if err := p.Forward(spec, img); err != nil {
				t.Fatal(err)
			}
			for i := range spec {
				if spec[i] != want[i] {
					t.Fatalf("%s: forward bin %d differs", label, i)
				}
			}
			rec := make([]float64, sz.h*sz.w)
			if err := p.Inverse(rec, spec); err != nil {
				t.Fatal(err)
			}
			for i := range rec {
				if rec[i] != wantRec[i] {
					t.Fatalf("%s: inverse sample %d differs", label, i)
				}
			}
		}
	}
}

// callDelta returns how many 2-D transform calls fn made on each branch
// of the split rule. The counters are process-wide; this package's tests
// do not run in parallel, so the delta is fn's alone.
func callDelta(t *testing.T, fn func() error) (serial, split int64) {
	t.Helper()
	s0, p0 := AutotuneCounts()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	s1, p1 := AutotuneCounts()
	return s1 - s0, p1 - p0
}

// settle waits until every token but the held ones is back in pool. A
// split's helper hands back its result before its token, so the call
// right after a split can find the pool briefly short.
func settle(pool *WorkerPool, held int) {
	for pool.Free()+held < pool.Cap() {
		runtime.Gosched()
	}
}

// TestAutotuneCounters pins the counting contract: every 2-D transform
// call — Execute, Forward, Inverse, InverseFill — records exactly one
// branch, split only when the call really forks.
func TestAutotuneCounters(t *testing.T) {
	pool := NewWorkerPool(2)
	defer pool.Close()
	data := randComplex(forkH*forkW, 3)
	img := make([]float64, forkH*forkW)
	spec := make([]complex128, forkH*(forkW/2+1))
	fill := func(dst []complex128, r int) { copy(dst, spec[r*len(dst):(r+1)*len(dst)]) }

	for _, tc := range []struct {
		name          string
		exec          ExecStrategy
		reserve       int
		serial, split int64
	}{
		{"default/free", ExecAuto, 0, 0, 1},
		{"default/reserved", ExecAuto, 2, 1, 0},
		{"serial/free", ExecSerial, 0, 1, 0},
	} {
		settle(pool, 0)
		held := pool.Reserve(tc.reserve)
		p, err := NewPlan2D(forkH, forkW, Forward, Plan2DOpts{Exec: tc.exec, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		rp, err := NewRealPlan2DOpts(forkH, forkW, Real2DOpts{Exec: tc.exec, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		for _, call := range []struct {
			name string
			fn   func() error
		}{
			{"Execute", func() error { return p.Execute(data) }},
			{"Forward", func() error { return rp.Forward(spec, img) }},
			{"Inverse", func() error { return rp.Inverse(img, spec) }},
			{"InverseFill", func() error { return rp.InverseFill(img, fill) }},
		} {
			settle(pool, held)
			if s, sp := callDelta(t, call.fn); s != tc.serial || sp != tc.split {
				t.Errorf("%s %s: counted serial+%d split+%d, want serial+%d split+%d",
					tc.name, call.name, s, sp, tc.serial, tc.split)
			}
		}
		pool.Release(held)
	}
}

// TestSplitRuleReadsThePoolPerCall pins the bug the plan-time timer had:
// a default plan built while pair workers hold every token must still
// fork once a token is free, because the rule is applied on each call,
// not resolved at construction. The complex plan is held to the same.
func TestSplitRuleReadsThePoolPerCall(t *testing.T) {
	pool := NewWorkerPool(1)
	defer pool.Close()
	held := pool.Reserve(1)
	rp, err := NewRealPlan2DOpts(forkH, forkW, Real2DOpts{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan2D(forkH, forkW, Forward, Plan2DOpts{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	img := make([]float64, forkH*forkW)
	spec := make([]complex128, forkH*(forkW/2+1))
	data := randComplex(forkH*forkW, 4)
	if _, split := callDelta(t, func() error { return rp.Forward(spec, img) }); split != 0 {
		t.Fatalf("Forward forked %d times with every token reserved", split)
	}
	pool.Release(held)
	if _, split := callDelta(t, func() error { return rp.Forward(spec, img) }); split != 1 {
		t.Errorf("real plan built under a full reservation: Forward after Release forked %d times, want 1", split)
	}
	settle(pool, 0)
	if _, split := callDelta(t, func() error { return p.Execute(data) }); split != 1 {
		t.Errorf("complex plan built under a full reservation: Execute after Release forked %d times, want 1", split)
	}
}

// TestSplitRuleFloor: a frame below splitFloor never forks, however many
// tokens are free, and its plan builds one slot.
func TestSplitRuleFloor(t *testing.T) {
	pool := NewWorkerPool(runtime.NumCPU())
	defer pool.Close()
	h, w := 64, splitFloor/64-2 // just below the floor
	p, err := NewPlan2D(h, w, Forward, Plan2DOpts{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewRealPlan2DOpts(h, w, Real2DOpts{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.rowPlans) != 1 || len(rp.rowF) != 1 {
		t.Fatalf("%dx%d below the floor built %d/%d slots, want 1", h, w, len(p.rowPlans), len(rp.rowF))
	}
	data := randComplex(h*w, 6)
	img := make([]float64, h*w)
	spec := make([]complex128, h*(w/2+1))
	for _, fn := range []func() error{
		func() error { return p.Execute(data) },
		func() error { return rp.Forward(spec, img) },
		func() error { return rp.Inverse(img, spec) },
	} {
		if s, split := callDelta(t, fn); s != 1 || split != 0 {
			t.Errorf("%dx%d with %d free tokens: serial+%d split+%d, want serial+1 split+0",
				h, w, pool.Free(), s, split)
		}
	}
}

// FuzzSplitPlanRoundTrip is the property test for the split rule: for
// any shape and any worker budget, a default plan with free tokens —
// which forks whenever the frame reaches splitFloor — equals the serial
// one bit-for-bit, and (for the real plan) the inverse round trip
// reproduces the input within DFT tolerance.
func FuzzSplitPlanRoundTrip(f *testing.F) {
	f.Add(4, 4, 0, int64(1))
	f.Add(9, 15, 1, int64(2))
	f.Add(64, 96, 4, int64(3))
	f.Add(13, 17, 2, int64(4))
	f.Add(forkH-2, forkW-2, 1, int64(5))
	f.Add(390, 300, 8, int64(6))
	f.Fuzz(func(t *testing.T, h, w, budget int, seed int64) {
		h = 2 + ((h%399)+399)%399       // [2, 400]
		w = 2 + ((w%399)+399)%399       // [2, 400]
		budget = ((budget % 9) + 9) % 9 // [0, 8]
		pool := NewWorkerPool(budget)
		defer pool.Close()

		src := randComplex(h*w, seed)
		ref, err := NewPlan2D(h, w, Forward, Plan2DOpts{Exec: ExecSerial})
		if err != nil {
			t.Fatal(err)
		}
		want := append([]complex128(nil), src...)
		if err := ref.Execute(want); err != nil {
			t.Fatal(err)
		}
		sp, err := NewPlan2D(h, w, Forward, Plan2DOpts{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), src...)
		if err := sp.Execute(got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("h=%d w=%d budget=%d: default forward element %d differs", h, w, budget, i)
			}
		}

		// Real plan: the default forward must match serial, and
		// inverting the spectrum must reproduce the image ×(h·w).
		rng := rand.New(rand.NewSource(seed))
		img := make([]float64, h*w)
		for i := range img {
			img[i] = rng.Float64()*2 - 1
		}
		rser, err := NewRealPlan2DOpts(h, w, Real2DOpts{Exec: ExecSerial})
		if err != nil {
			t.Fatal(err)
		}
		rsp, err := NewRealPlan2DOpts(h, w, Real2DOpts{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		sh, sw := rser.SpectrumDims()
		wantSpec := make([]complex128, sh*sw)
		if err := rser.Forward(wantSpec, img); err != nil {
			t.Fatal(err)
		}
		gotSpec := make([]complex128, sh*sw)
		if err := rsp.Forward(gotSpec, img); err != nil {
			t.Fatal(err)
		}
		for i := range gotSpec {
			if gotSpec[i] != wantSpec[i] {
				t.Fatalf("h=%d w=%d budget=%d: default r2c bin %d differs", h, w, budget, i)
			}
		}
		back := make([]float64, h*w)
		if err := rsp.Inverse(back, gotSpec); err != nil {
			t.Fatal(err)
		}
		scale := float64(h * w)
		for i := range back {
			if d := back[i]/scale - img[i]; d > tolFor(h*w) || d < -tolFor(h*w) {
				t.Fatalf("h=%d w=%d budget=%d: round trip sample %d off by %g", h, w, budget, i, d)
			}
		}
	})
}

// TestWorkerPoolShutdownNoLeak pins the pool's goroutine discipline:
// helpers are transient, Close waits for stragglers, and an exercised
// pool leaves nothing behind.
func TestWorkerPoolShutdownNoLeak(t *testing.T) {
	defer leaktest.VerifyNone(t)
	pool := NewWorkerPool(4)
	var ran sync.WaitGroup
	for i := 0; i < 64; i++ {
		ran.Add(1)
		ok := pool.TryGo(func() {
			defer ran.Done()
			runtime.Gosched()
		})
		if !ok {
			ran.Done()
		}
	}
	ran.Wait()
	pool.Close()
	// Closed pools refuse new work instead of leaking it.
	if pool.TryGo(func() {}) {
		t.Fatal("TryGo accepted work after Close")
	}
	// Reserve/Release round trip on a fresh pool, then close under load.
	p2 := NewWorkerPool(3)
	got := p2.Reserve(2)
	if got != 2 {
		t.Fatalf("Reserve(2) on cap-3 pool got %d", got)
	}
	if n := p2.Reserve(5); n != 1 {
		t.Fatalf("Reserve(5) with 1 token left got %d", n)
	}
	p2.Release(got + 1)
	p2.Close()
	// The nil pool is a valid empty pool everywhere.
	var nilPool *WorkerPool
	if nilPool.TryGo(func() {}) || nilPool.Reserve(1) != 0 || nilPool.Cap() != 0 {
		t.Fatal("nil pool must behave as empty")
	}
	nilPool.Release(0)
	nilPool.Close()
}

// TestPairAndSplitParallelismStress interleaves the two layers that
// share the worker budget — pair-level workers holding Reserve tokens
// and split transforms grabbing what remains — under the race detector.
// Each worker owns its plans (the production shape: one aligner per
// worker); only the pool is shared.
func TestPairAndSplitParallelismStress(t *testing.T) {
	pool := NewWorkerPool(4)
	defer pool.Close()
	const workers = 4
	h, w := forkH, forkW
	src := randComplex(h*w, 21)
	ref, err := NewPlan2D(h, w, Forward, Plan2DOpts{Exec: ExecSerial})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]complex128(nil), src...)
	if err := ref.Execute(want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			p, err := NewPlan2D(h, w, Forward, Plan2DOpts{Pool: pool})
			if err != nil {
				errCh <- err
				return
			}
			rp, err := NewRealPlan2DOpts(h, w, Real2DOpts{Pool: pool})
			if err != nil {
				errCh <- err
				return
			}
			sh, sw := rp.SpectrumDims()
			img := make([]float64, h*w)
			for i := range img {
				img[i] = float64((i*7+wk)%13) - 6
			}
			spec := make([]complex128, sh*sw)
			for iter := 0; iter < 8; iter++ {
				// Pair-level reservation churn against everyone's splits.
				got := pool.Reserve(1 + wk%2)
				data := append([]complex128(nil), src...)
				if err := p.Execute(data); err != nil {
					pool.Release(got)
					errCh <- err
					return
				}
				for i := range data {
					if data[i] != want[i] {
						pool.Release(got)
						errCh <- errMismatch
						return
					}
				}
				if err := rp.Forward(spec, img); err != nil {
					pool.Release(got)
					errCh <- err
					return
				}
				pool.Release(got)
			}
		}(wk)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "split result diverged from serial under stress" }

// TestSerialExecZeroAllocs pins the steady-state guarantee: a call that
// does not split allocates nothing — under ExecSerial, and under the
// default rule while every token is reserved, which is the configuration
// the pipelined run executes (its pair workers hold the whole pool). The
// split path is bounded: it allocates only its per-fork channels and
// helper closures, never per-element scratch.
func TestSerialExecZeroAllocs(t *testing.T) {
	pool := NewWorkerPool(4)
	defer pool.Close()
	zero := func(label string, fn func() error) {
		t.Helper()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", label, allocs)
		}
	}
	h, w := forkH, forkW
	data := randComplex(h*w, 31)
	img := make([]float64, h*w)
	spec := make([]complex128, h*(w/2+1))
	fill := func(dst []complex128, r int) { copy(dst, spec[r*len(dst):(r+1)*len(dst)]) }
	for _, exec := range execOpts {
		held := 0
		label := "serial"
		if exec == ExecAuto {
			held, label = pool.Reserve(pool.Cap()), "default/reserved"
		}
		p, err := NewPlan2D(h, w, Forward, Plan2DOpts{Exec: exec, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		rp, err := NewRealPlan2DOpts(h, w, Real2DOpts{Exec: exec, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		zero(label+" Plan2D.Execute", func() error { return p.Execute(data) })
		zero(label+" RealPlan2D.Forward", func() error { return rp.Forward(spec, img) })
		zero(label+" RealPlan2D.InverseFill", func() error { return rp.InverseFill(img, fill) })
		pool.Release(held)
	}

	// Split path: bounded, not zero — each fork costs one channel, one
	// closure, and one goroutine. 8 slots across 3 passes stays well
	// under this pin; growth means someone put per-element allocation on
	// the hot path.
	sp, err := NewPlan2D(h, w, Forward, Plan2DOpts{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Execute(data); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := sp.Execute(data); err != nil {
			t.Fatal(err)
		}
	}); allocs > 128 {
		t.Fatalf("split Plan2D.Execute allocates %.1f per call, want ≤ 128", allocs)
	}
}
