package fft

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"hybridstitch/internal/analysis/leaktest"
)

// This file is the differential/property wall for the intra-transform
// execution strategies. The split path only repartitions the
// row/column loops — every 1-D transform sees the same data in the same
// order — so the contract throughout is exact (==) equality with the
// serial path, not a tolerance.

// execSizes mixes shapes below and above the split threshold
// (splitMinWork = 4096 elements): odd, prime, power-of-two, and two
// sizes big enough that ExecSplit actually forks.
var execSizes = []struct{ h, w int }{
	{9, 15},   // odd × odd, far below the split floor
	{13, 17},  // prime × prime
	{16, 16},  // power of two
	{64, 96},  // above splitMinWork: splits fork for real
	{80, 128}, // multi-block, pow2 width
}

// execPools is the worker-budget axis: empty (split must degrade to
// inline), one helper, and a machine's worth.
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

// TestExecMatrixBitIdentical runs the full complex-plan execution matrix
// — {serial, split, auto} × pool sizes {0, 1, NumCPU} × both
// directions — and requires bit-identical output to the row-then-column
// oracle.
func TestExecMatrixBitIdentical(t *testing.T) {
	for _, sz := range execSizes {
		for _, dir := range []Direction{Forward, Inverse} {
			src := randComplex(sz.h*sz.w, int64(sz.h*100+sz.w))
			want := oracle2D(t, src, sz.h, sz.w, dir)
			check := func(label string, got []complex128) {
				t.Helper()
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%dx%d dir=%v %s: element %d differs: got %v want %v",
							sz.h, sz.w, dir, label, i, got[i], want[i])
					}
				}
			}
			for _, pool := range execPools(t) {
				for _, exec := range []ExecStrategy{ExecSerial, ExecSplit, ExecAuto} {
					p, err := NewPlan2D(sz.h, sz.w, dir, Plan2DOpts{Exec: exec, Pool: pool})
					if err != nil {
						t.Fatal(err)
					}
					got := append([]complex128(nil), src...)
					if err := p.Execute(got); err != nil {
						t.Fatal(err)
					}
					check(execLabel(exec, pool), got)
				}
			}
		}
	}
}

func execLabel(exec ExecStrategy, pool *WorkerPool) string {
	return exec.String() + "/cap=" + itoa(pool.Cap())
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
		for _, pool := range execPools(t) {
			for _, exec := range []ExecStrategy{ExecSerial, ExecSplit, ExecAuto} {
				label := execLabel(exec, pool)
				p, err := NewRealPlan2DOpts(sz.h, sz.w, Real2DOpts{Exec: exec, Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				spec := make([]complex128, sh*sw)
				if err := p.Forward(spec, img); err != nil {
					t.Fatal(err)
				}
				for i := range spec {
					if spec[i] != want[i] {
						t.Fatalf("%dx%d %s: forward bin %d differs", sz.h, sz.w, label, i)
					}
				}
				rec := make([]float64, sz.h*sz.w)
				if err := p.Inverse(rec, spec); err != nil {
					t.Fatal(err)
				}
				for i := range rec {
					if rec[i] != wantRec[i] {
						t.Fatalf("%dx%d %s: inverse sample %d differs", sz.h, sz.w, label, i)
					}
				}
			}
		}
	}
}

// TestAutotuneChoiceInvariance is the property behind shipping ExecAuto
// as the default: whatever the measured autotuner commits to — which
// varies with machine load and core count — the numerical results never
// change. The decision cache is reset so the measurement really runs.
func TestAutotuneChoiceInvariance(t *testing.T) {
	resetAutotuneForTest()
	pool := NewWorkerPool(runtime.NumCPU())
	defer pool.Close()
	h, w := 96, 64 // above autotuneFloor with the pool budget: a real decision
	src := randComplex(h*w, 5)

	ref, err := NewPlan2D(h, w, Forward, Plan2DOpts{Exec: ExecSerial})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]complex128(nil), src...)
	if err := ref.Execute(want); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		resetAutotuneForTest()
		p, err := NewPlan2D(h, w, Forward, Plan2DOpts{Exec: ExecAuto, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), src...)
		if err := p.Execute(got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (chose exec=%v): element %d differs", trial, p.Exec(), i)
			}
		}
	}

	// Real plans: same property.
	rng := rand.New(rand.NewSource(13))
	img := make([]float64, h*w)
	for i := range img {
		img[i] = rng.NormFloat64()
	}
	rref, err := NewRealPlan2DOpts(h, w, Real2DOpts{Exec: ExecSerial})
	if err != nil {
		t.Fatal(err)
	}
	sh, sw := rref.SpectrumDims()
	rwant := make([]complex128, sh*sw)
	if err := rref.Forward(rwant, img); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		resetAutotuneForTest()
		rp, err := NewRealPlan2DOpts(h, w, Real2DOpts{Exec: ExecAuto, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, sh*sw)
		if err := rp.Forward(got, img); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != rwant[i] {
				t.Fatalf("trial %d (chose exec=%v): bin %d differs", trial, rp.Exec(), i)
			}
		}
	}
}

// TestAutotuneSerialWinsTies pins the two halves of the tie rule. With
// every pool token held — pair workers reserve theirs before any plan is
// built — a split cannot fork: every fresh decision is serial, not a
// coin flip, and none is cached for a later caller that finds the pool
// free. And where both shapes are measured, split needs a clear tenth,
// not any measured edge.
func TestAutotuneSerialWinsTies(t *testing.T) {
	pool := NewWorkerPool(2)
	defer pool.Close()
	held := pool.Reserve(2)
	defer pool.Release(held)
	for trial := 0; trial < 20; trial++ {
		resetAutotuneForTest()
		p, err := NewRealPlan2DOpts(128, 192, Real2DOpts{Exec: ExecAuto, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if p.Exec() != ExecSerial {
			t.Errorf("decision %d with no free token: %v, want serial", trial, p.Exec())
		}
	}
	autoMu.Lock()
	cached := len(autoCache)
	autoMu.Unlock()
	if cached != 0 {
		t.Errorf("%d decisions cached while no split could fork", cached)
	}

	resetAutotuneForTest()
	nap := func(d time.Duration) func() error {
		return func() error { time.Sleep(d); return nil }
	}
	if c := autotune(autoKey{kind: "tie"}, nap(20*time.Millisecond), nap(19*time.Millisecond)); c != ExecSerial {
		t.Errorf("split 5%% faster: chose %v, want serial", c)
	}
	if c := autotune(autoKey{kind: "clear"}, nap(20*time.Millisecond), nap(5*time.Millisecond)); c != ExecSplit {
		t.Errorf("split 4x faster: chose %v, want split", c)
	}
}

// TestAutotuneCounters pins the decision-counting contract: every
// ExecAuto plan construction records exactly one decision, serial or
// split and nothing else (trivial no-budget resolutions included),
// forced strategies record none, and cache hits still count — the
// counters meter decisions consumed, not measurements run.
func TestAutotuneCounters(t *testing.T) {
	resetAutotuneForTest()
	total := func() int64 {
		s, p := AutotuneCounts()
		return s + p
	}

	before := total()
	if _, err := NewPlan2D(8, 8, Forward, Plan2DOpts{Exec: ExecSerial}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan2D(8, 8, Forward, Plan2DOpts{Exec: ExecSplit}); err != nil {
		t.Fatal(err)
	}
	if got := total(); got != before {
		t.Fatalf("forced plans moved the autotune counters by %d", got-before)
	}

	// Trivial auto resolution (empty pool): counted as serial.
	empty := NewWorkerPool(0)
	defer empty.Close()
	sBefore, _ := AutotuneCounts()
	if _, err := NewPlan2D(8, 8, Forward, Plan2DOpts{Exec: ExecAuto, Pool: empty}); err != nil {
		t.Fatal(err)
	}
	if s, _ := AutotuneCounts(); s != sBefore+1 {
		t.Fatalf("trivial auto resolution: serial count %d -> %d, want +1", sBefore, s)
	}

	// Measured resolution, twice: the second construction hits the cache
	// but still consumes (and counts) a decision.
	pool := NewWorkerPool(2)
	defer pool.Close()
	before = total()
	for i := 0; i < 2; i++ {
		if _, err := NewPlan2D(96, 64, Forward, Plan2DOpts{Exec: ExecAuto, Pool: pool}); err != nil {
			t.Fatal(err)
		}
	}
	if got := total(); got != before+2 {
		t.Fatalf("two auto constructions counted %d decisions, want 2", got-before)
	}
}

// FuzzSplitPlanRoundTrip is the property test for the split executor:
// for any shape and any worker budget, the split-path forward transform
// equals the serial one bit-for-bit, and (for the real plan) the
// inverse round trip reproduces the input within DFT tolerance.
func FuzzSplitPlanRoundTrip(f *testing.F) {
	f.Add(4, 4, 0, int64(1))
	f.Add(9, 15, 1, int64(2))
	f.Add(64, 96, 4, int64(3))
	f.Add(13, 17, 2, int64(4))
	f.Add(80, 128, 8, int64(5))
	f.Fuzz(func(t *testing.T, h, w, budget int, seed int64) {
		h = 2 + ((h%95)+95)%95          // [2, 96]
		w = 2 + ((w%95)+95)%95          // [2, 96]
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
		sp, err := NewPlan2D(h, w, Forward, Plan2DOpts{Exec: ExecSplit, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), src...)
		if err := sp.Execute(got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("h=%d w=%d budget=%d: split forward element %d differs", h, w, budget, i)
			}
		}

		// Real plan: split forward must match serial, and inverting the
		// spectrum must reproduce the image ×(h·w).
		rng := rand.New(rand.NewSource(seed))
		img := make([]float64, h*w)
		for i := range img {
			img[i] = rng.Float64()*2 - 1
		}
		rser, err := NewRealPlan2DOpts(h, w, Real2DOpts{Exec: ExecSerial})
		if err != nil {
			t.Fatal(err)
		}
		rsp, err := NewRealPlan2DOpts(h, w, Real2DOpts{Exec: ExecSplit, Pool: pool})
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
				t.Fatalf("h=%d w=%d budget=%d: split r2c bin %d differs", h, w, budget, i)
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
	h, w := 64, 80
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
			p, err := NewPlan2D(h, w, Forward, Plan2DOpts{Exec: ExecSplit, Pool: pool})
			if err != nil {
				errCh <- err
				return
			}
			rp, err := NewRealPlan2DOpts(h, w, Real2DOpts{Exec: ExecSplit, Pool: pool})
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
			for iter := 0; iter < 25; iter++ {
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

// TestSerialExecZeroAllocs pins the PR 5 steady-state guarantee on the
// serial path after the executor refactor, and bounds the split path:
// splitting allocates only its per-fork channels and helper closures,
// never per-element scratch.
func TestSerialExecZeroAllocs(t *testing.T) {
	h, w := 64, 48
	p, err := NewPlan2D(h, w, Forward, Plan2DOpts{Exec: ExecSerial})
	if err != nil {
		t.Fatal(err)
	}
	data := randComplex(h*w, 31)
	if err := p.Execute(data); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := p.Execute(data); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("serial Plan2D.Execute allocates %.1f per call, want 0", allocs)
	}

	rp, err := NewRealPlan2DOpts(h, w, Real2DOpts{Exec: ExecSerial})
	if err != nil {
		t.Fatal(err)
	}
	sh, sw := rp.SpectrumDims()
	img := make([]float64, h*w)
	spec := make([]complex128, sh*sw)
	if err := rp.Forward(spec, img); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := rp.Forward(spec, img); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("serial RealPlan2D.Forward allocates %.1f per call, want 0", allocs)
	}

	// Split path: bounded, not zero — each fork costs one channel, one
	// closure, and one goroutine. 8 slots across 3 passes stays well
	// under this pin; growth means someone put per-element allocation on
	// the hot path.
	pool := NewWorkerPool(4)
	defer pool.Close()
	sp, err := NewPlan2D(128, 96, Forward, Plan2DOpts{Exec: ExecSplit, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	big := randComplex(128*96, 33)
	if err := sp.Execute(big); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := sp.Execute(big); err != nil {
			t.Fatal(err)
		}
	}); allocs > 128 {
		t.Fatalf("split Plan2D.Execute allocates %.1f per call, want ≤ 128", allocs)
	}
}
