package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// TestPlannerRealPlansUseWisdom checks the Planner's real-plan entry
// point builds working plans. The planner's only wisdom is the package's
// rules, so its plan must have the asked geometry and match the package
// constructor bit for bit, forward and inverse, across the exec matrix.
func TestPlannerRealPlansUseWisdom(t *testing.T) {
	const h, w = forkH, forkW
	rng := rand.New(rand.NewSource(23))
	img := make([]float64, h*w)
	for i := range img {
		img[i] = rng.Float64()*2 - 1
	}
	for _, o := range execMatrix(t) {
		opts := Real2DOpts{Exec: o.Exec, Pool: o.Pool}
		p, err := NewPlanner(Measure).RealPlan2DOpts(h, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if p.H() != h || p.W() != w {
			t.Fatalf("exec %v/cap %d: RealPlan2D geometry %dx%d, want %dx%d", opts.Exec, o.Pool.Cap(), p.H(), p.W(), h, w)
		}
		ref, err := NewRealPlan2DOpts(h, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		a := make([]complex128, h*(w/2+1))
		b := make([]complex128, h*(w/2+1))
		if err := p.Forward(a, img); err != nil {
			t.Fatal(err)
		}
		if err := ref.Forward(b, img); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(a, b); d != 0 {
			t.Errorf("exec %v/cap %d: planner-built forward diverges from the package plan by %g", opts.Exec, o.Pool.Cap(), d)
		}
		x := make([]float64, h*w)
		y := make([]float64, h*w)
		if err := p.Inverse(x, a); err != nil {
			t.Fatal(err)
		}
		if err := ref.Inverse(y, b); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("exec %v/cap %d: planner-built inverse at %d: %v, package plan %v", opts.Exec, o.Pool.Cap(), i, x[i], y[i])
			}
		}
	}
}

// TestRealPlanEdgeSizes pins the smallest legal lengths and the odd-n
// fallback: round trips must reproduce the input under the documented ×n
// convention, and the forward half spectrum must equal the complex DFT's
// first n/2+1 bins — for n=2 and n=3 in particular, which no other test
// covered.
func TestRealPlanEdgeSizes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7, 9, 25, 27, 31} {
		rng := rand.New(rand.NewSource(int64(n)*3 + 1))
		x := make([]float64, n)
		cx := make([]complex128, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
			cx[i] = complex(x[i], 0)
		}
		rp, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		spec := make([]complex128, rp.SpectrumLen())
		if err := rp.Forward(spec, x); err != nil {
			t.Fatal(err)
		}
		want := naiveDFT(cx, Forward)
		for k := range spec {
			if cmplx.Abs(spec[k]-want[k]) > tolFor(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, spec[k], want[k])
			}
		}
		back := make([]float64, n)
		if err := rp.Inverse(back, spec); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]/float64(n)-x[i]) > tolFor(n) {
				t.Fatalf("n=%d sample %d: round trip %g want %g", n, i, back[i]/float64(n), x[i])
			}
		}
	}

	if _, err := NewRealPlan(1); err == nil {
		t.Error("NewRealPlan(1) should be rejected")
	}
}

// TestRealPlan2DOddSizesRoundTrip exercises the 2-D plan with odd widths
// (odd-n row fallback) and odd heights.
func TestRealPlan2DOddSizesRoundTrip(t *testing.T) {
	for _, tc := range []struct{ h, w int }{
		{5, 7}, {9, 3}, {3, 2}, {7, 13},
	} {
		p, err := NewRealPlan2D(tc.h, tc.w)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(tc.h*100 + tc.w)))
		img := make([]float64, tc.h*tc.w)
		for i := range img {
			img[i] = rng.Float64()*2 - 1
		}
		sh, sw := p.SpectrumDims()
		spec := make([]complex128, sh*sw)
		if err := p.Forward(spec, img); err != nil {
			t.Fatal(err)
		}
		back := make([]float64, tc.h*tc.w)
		if err := p.Inverse(back, spec); err != nil {
			t.Fatal(err)
		}
		scale := float64(tc.h * tc.w)
		for i := range img {
			if math.Abs(back[i]/scale-img[i]) > tolFor(tc.h*tc.w) {
				t.Fatalf("%dx%d sample %d: got %g want %g",
					tc.h, tc.w, i, back[i]/scale, img[i])
			}
		}
	}
}

// FuzzRealPlanRoundTrip is the property test behind the odd-n
// verification: for any length ≥ 2 and any input, r2c forward must match
// the complex DFT's half spectrum and c2r inverse must reproduce the
// input ×n.
func FuzzRealPlanRoundTrip(f *testing.F) {
	f.Add(2, int64(0))
	f.Add(3, int64(1))
	f.Add(16, int64(2))
	f.Add(29, int64(3))
	f.Add(96, int64(4))
	f.Add(174, int64(5))
	f.Fuzz(func(t *testing.T, n int, seed int64) {
		n = 2 + ((n%199)+199)%199 // clamp to [2, 200]
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		cx := make([]complex128, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
			cx[i] = complex(x[i], 0)
		}
		rp, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		spec := make([]complex128, rp.SpectrumLen())
		if err := rp.Forward(spec, x); err != nil {
			t.Fatal(err)
		}
		want := naiveDFT(cx, Forward)
		for k := range spec {
			if cmplx.Abs(spec[k]-want[k]) > tolFor(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, spec[k], want[k])
			}
		}
		back := make([]float64, n)
		if err := rp.Inverse(back, spec); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]/float64(n)-x[i]) > tolFor(n) {
				t.Fatalf("n=%d sample %d: round trip %g want %g", n, i, back[i]/float64(n), x[i])
			}
		}
	})
}
