package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// naiveDFT2D is the O((hw)²) reference 2-D transform.
func naiveDFT2D(x []complex128, h, w int, dir Direction) []complex128 {
	out := make([]complex128, h*w)
	sign := -1.0
	if dir == Inverse {
		sign = 1.0
	}
	for kr := 0; kr < h; kr++ {
		for kc := 0; kc < w; kc++ {
			var acc complex128
			for r := 0; r < h; r++ {
				for c := 0; c < w; c++ {
					ang := sign * 2 * math.Pi * (float64(kr)*float64(r)/float64(h) + float64(kc)*float64(c)/float64(w))
					acc += x[r*w+c] * cmplx.Exp(complex(0, ang))
				}
			}
			out[kr*w+kc] = acc
		}
	}
	return out
}

func TestPlan2DMatchesNaive(t *testing.T) {
	cases := []struct{ h, w int }{
		{1, 1}, {1, 8}, {8, 1}, {4, 4}, {6, 10}, {13, 5}, {12, 29}, {16, 24},
	}
	for _, tc := range cases {
		for _, dir := range []Direction{Forward, Inverse} {
			x := randComplex(tc.h*tc.w, int64(tc.h*100+tc.w))
			want := naiveDFT2D(x, tc.h, tc.w, dir)
			p, err := NewPlan2D(tc.h, tc.w, dir, Plan2DOpts{})
			if err != nil {
				t.Fatalf("NewPlan2D(%d,%d): %v", tc.h, tc.w, err)
			}
			got := append([]complex128(nil), x...)
			if err := p.Execute(got); err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(got, want); d > tolFor(tc.h*tc.w) {
				t.Errorf("%dx%d dir=%v: max diff %g", tc.h, tc.w, dir, d)
			}
		}
	}
}

// TestPlan2DParallelMatchesSerial: a transform big enough that the split
// really forks must equal the single-goroutine one at every helper
// budget.
func TestPlan2DParallelMatchesSerial(t *testing.T) {
	const h, w = 72, 80
	x := randComplex(h*w, 9)
	serial, err := NewPlan2D(h, w, Forward, Plan2DOpts{Exec: ExecSerial})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]complex128(nil), x...)
	if err := serial.Execute(want); err != nil {
		t.Fatal(err)
	}
	for _, helpers := range []int{1, 2, 3, 6} {
		pool := NewWorkerPool(helpers)
		par, err := NewPlan2D(h, w, Forward, Plan2DOpts{Exec: ExecSplit, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), x...)
		if err := par.Execute(got); err != nil {
			t.Fatal(err)
		}
		pool.Close()
		if d := maxAbsDiff(got, want); d != 0 {
			t.Errorf("helpers=%d: diverges from serial by %g", helpers, d)
		}
	}
}

func TestPlan2DRoundTripProperty(t *testing.T) {
	f := func(seed int64, hs, ws uint8) bool {
		h := int(hs)%12 + 1
		w := int(ws)%12 + 1
		x := randComplex(h*w, seed)
		fwd, err := NewPlan2D(h, w, Forward, Plan2DOpts{})
		if err != nil {
			return false
		}
		inv, err := NewPlan2D(h, w, Inverse, Plan2DOpts{NormalizeInverse: true})
		if err != nil {
			return false
		}
		y := append([]complex128(nil), x...)
		if fwd.Execute(y) != nil || inv.Execute(y) != nil {
			return false
		}
		return maxAbsDiff(y, x) < tolFor(h*w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPlan2DShiftTheorem(t *testing.T) {
	// 2-D circular shift by (sy, sx) multiplies bin (kr, kc) by
	// exp(-2πi(kr·sy/h + kc·sx/w)) — the foundation of the stitching
	// algorithm's displacement recovery.
	const h, w = 12, 16
	const sy, sx = 3, 5
	x := randComplex(h*w, 11)
	shifted := make([]complex128, h*w)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			shifted[r*w+c] = x[((r-sy+h)%h)*w+(c-sx+w)%w]
		}
	}
	p, _ := NewPlan2D(h, w, Forward, Plan2DOpts{})
	fx := append([]complex128(nil), x...)
	if err := p.Execute(fx); err != nil {
		t.Fatal(err)
	}
	if err := p.Execute(shifted); err != nil {
		t.Fatal(err)
	}
	for kr := 0; kr < h; kr++ {
		for kc := 0; kc < w; kc++ {
			ang := -2 * math.Pi * (float64(kr)*sy/float64(h) + float64(kc)*sx/float64(w))
			want := fx[kr*w+kc] * cmplx.Exp(complex(0, ang))
			if cmplx.Abs(shifted[kr*w+kc]-want) > 1e-9*float64(h*w) {
				t.Fatalf("bin (%d,%d): got %v want %v", kr, kc, shifted[kr*w+kc], want)
			}
		}
	}
}

func TestPlan2DErrors(t *testing.T) {
	if _, err := NewPlan2D(0, 4, Forward, Plan2DOpts{}); err == nil {
		t.Error("zero height should fail")
	}
	if _, err := NewPlan2D(4, -1, Forward, Plan2DOpts{}); err == nil {
		t.Error("negative width should fail")
	}
	p, _ := NewPlan2D(4, 4, Forward, Plan2DOpts{})
	if err := p.Execute(make([]complex128, 15)); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestRealPlanMatchesComplex(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8, 10, 16, 30, 48, 96, 174, 7, 15, 29} {
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		cx := make([]complex128, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
			cx[i] = complex(x[i], 0)
		}
		cp, _ := NewPlan(n, Forward, PlanOpts{})
		if err := cp.Execute(cx); err != nil {
			t.Fatal(err)
		}
		rp, err := NewRealPlan(n)
		if err != nil {
			t.Fatalf("NewRealPlan(%d): %v", n, err)
		}
		spec := make([]complex128, rp.SpectrumLen())
		if err := rp.Forward(spec, x); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < rp.SpectrumLen(); k++ {
			if cmplx.Abs(spec[k]-cx[k]) > tolFor(n) {
				t.Errorf("n=%d bin %d: r2c %v, c2c %v", n, k, spec[k], cx[k])
			}
		}
	}
}

func TestRealPlanRoundTrip(t *testing.T) {
	for _, n := range []int{2, 6, 8, 16, 30, 96, 9, 15} {
		rng := rand.New(rand.NewSource(int64(n) + 99))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		rp, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		spec := make([]complex128, rp.SpectrumLen())
		if err := rp.Forward(spec, x); err != nil {
			t.Fatal(err)
		}
		back := make([]float64, n)
		if err := rp.Inverse(back, spec); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]/float64(n)-x[i]) > tolFor(n) {
				t.Fatalf("n=%d sample %d: got %g want %g", n, i, back[i]/float64(n), x[i])
			}
		}
	}
}

func TestRealPlan2DMatchesComplex(t *testing.T) {
	const h, w = 10, 12
	rng := rand.New(rand.NewSource(5))
	img := make([]float64, h*w)
	cimg := make([]complex128, h*w)
	for i := range img {
		img[i] = rng.Float64()
		cimg[i] = complex(img[i], 0)
	}
	cp, _ := NewPlan2D(h, w, Forward, Plan2DOpts{})
	if err := cp.Execute(cimg); err != nil {
		t.Fatal(err)
	}
	rp, err := NewRealPlan2D(h, w)
	if err != nil {
		t.Fatal(err)
	}
	sh, sw := rp.SpectrumDims()
	spec := make([]complex128, sh*sw)
	if err := rp.Forward(spec, img); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < sh; r++ {
		for c := 0; c < sw; c++ {
			if cmplx.Abs(spec[r*sw+c]-cimg[r*w+c]) > tolFor(h*w) {
				t.Errorf("bin (%d,%d): r2c %v, c2c %v", r, c, spec[r*sw+c], cimg[r*w+c])
			}
		}
	}
}

func TestRealPlan2DRoundTrip(t *testing.T) {
	const h, w = 9, 14
	rng := rand.New(rand.NewSource(6))
	img := make([]float64, h*w)
	for i := range img {
		img[i] = rng.Float64()
	}
	rp, err := NewRealPlan2D(h, w)
	if err != nil {
		t.Fatal(err)
	}
	sh, sw := rp.SpectrumDims()
	spec := make([]complex128, sh*sw)
	if err := rp.Forward(spec, img); err != nil {
		t.Fatal(err)
	}
	back := make([]float64, h*w)
	if err := rp.Inverse(back, spec); err != nil {
		t.Fatal(err)
	}
	scale := float64(h * w)
	for i := range img {
		if math.Abs(back[i]/scale-img[i]) > tolFor(h*w) {
			t.Fatalf("pixel %d: got %g want %g", i, back[i]/scale, img[i])
		}
	}
}

func TestPlannerWisdomCaching(t *testing.T) {
	pl := NewPlanner(Measure)
	p1, err := pl.Plan(60, Forward, PlanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.WisdomSize() != 1 {
		t.Fatalf("wisdom size = %d, want 1", pl.WisdomSize())
	}
	p2, err := pl.Plan(60, Forward, PlanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Strategy() != p2.Strategy() {
		t.Errorf("cached strategy changed: %s vs %s", p1.Strategy(), p2.Strategy())
	}
}

func TestPlannerWisdomExportImport(t *testing.T) {
	pl := NewPlanner(Measure)
	if _, err := pl.Plan(60, Forward, PlanOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(64, Inverse, PlanOpts{}); err != nil {
		t.Fatal(err)
	}
	blob, err := pl.ExportWisdom()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewPlanner(Estimate)
	if err := fresh.ImportWisdom(blob); err != nil {
		t.Fatal(err)
	}
	if fresh.WisdomSize() != 2 {
		t.Fatalf("imported wisdom size = %d, want 2", fresh.WisdomSize())
	}
	if err := fresh.ImportWisdom([]byte("not json")); err == nil {
		t.Error("bad wisdom should fail")
	}
}

func TestPlannerPlansAreCorrect(t *testing.T) {
	// Whatever strategy each mode picks, the result must match the naive
	// DFT.
	for _, mode := range []Mode{Estimate, Measure, Patient} {
		pl := NewPlanner(mode)
		for _, n := range []int{12, 60, 64, 97} {
			x := randComplex(n, int64(n))
			want := naiveDFT(x, Forward)
			p, err := pl.Plan(n, Forward, PlanOpts{})
			if err != nil {
				t.Fatal(err)
			}
			got := append([]complex128(nil), x...)
			if err := p.Execute(got); err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(got, want); d > tolFor(n) {
				t.Errorf("mode=%v n=%d strat=%s: diff %g", mode, n, p.Strategy(), d)
			}
		}
	}
}

func TestPlannerPlan2D(t *testing.T) {
	pl := NewPlanner(Estimate)
	p, err := pl.Plan2D(6, 10, Forward, Plan2DOpts{})
	if err != nil {
		t.Fatal(err)
	}
	x := randComplex(60, 3)
	want := naiveDFT2D(x, 6, 10, Forward)
	got := append([]complex128(nil), x...)
	if err := p.Execute(got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, want); d > tolFor(60) {
		t.Errorf("planner 2-D plan wrong by %g", d)
	}
}

// TestRealPlan2DParallelMatchesSerial is the r2c counterpart, forward
// and back.
func TestRealPlan2DParallelMatchesSerial(t *testing.T) {
	const h, w = 72, 80
	rng := rand.New(rand.NewSource(8))
	img := make([]float64, h*w)
	for i := range img {
		img[i] = rng.Float64()
	}
	serial, err := NewRealPlan2D(h, w)
	if err != nil {
		t.Fatal(err)
	}
	sh, sw := serial.SpectrumDims()
	want := make([]complex128, sh*sw)
	if err := serial.Forward(want, img); err != nil {
		t.Fatal(err)
	}
	for _, helpers := range []int{1, 2, 4} {
		pool := NewWorkerPool(helpers)
		par, err := NewRealPlan2DOpts(h, w, Real2DOpts{Exec: ExecSplit, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, sh*sw)
		if err := par.Forward(got, img); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, want); d != 0 {
			t.Errorf("helpers=%d forward diverges by %g", helpers, d)
		}
		back := make([]float64, h*w)
		if err := par.Inverse(back, got); err != nil {
			t.Fatal(err)
		}
		pool.Close()
		scale := float64(h * w)
		for i := range img {
			if math.Abs(back[i]/scale-img[i]) > tolFor(h*w) {
				t.Fatalf("helpers=%d inverse wrong at %d", helpers, i)
			}
		}
	}
}

// TestPlannerConcurrent: the planner itself must be safe for concurrent
// Plan calls.
func TestPlannerConcurrent(t *testing.T) {
	pl := NewPlanner(Measure)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, n := range []int{12, 60, 64, 97, 120} {
				if _, err := pl.Plan(n, Forward, PlanOpts{}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if pl.WisdomSize() != 5 {
		t.Errorf("wisdom size %d, want 5", pl.WisdomSize())
	}
}
