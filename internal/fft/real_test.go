package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// TestPlannerRealPlansUseWisdom checks the Planner's real-plan entry
// points build working plans and fill the wisdom cache for their inner
// complex sizes.
func TestPlannerRealPlansUseWisdom(t *testing.T) {
	pl := NewPlanner(Measure)
	rp, err := pl.RealPlan(96)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Len() != 96 {
		t.Fatalf("RealPlan length %d, want 96", rp.Len())
	}
	if pl.WisdomSize() == 0 {
		t.Error("planner real plan consulted no wisdom")
	}

	p2, err := pl.RealPlan2DOpts(10, 12, Real2DOpts{Exec: ExecSerial})
	if err != nil {
		t.Fatal(err)
	}
	if p2.H() != 10 || p2.W() != 12 {
		t.Fatalf("RealPlan2D geometry %dx%d", p2.H(), p2.W())
	}
	// Planner-built and default-built plans must agree numerically.
	img := make([]float64, 10*12)
	rng := rand.New(rand.NewSource(23))
	for i := range img {
		img[i] = rng.Float64()*2 - 1
	}
	ref, err := NewRealPlan2D(10, 12)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]complex128, 10*(12/2+1))
	b := make([]complex128, 10*(12/2+1))
	if err := p2.Forward(a, img); err != nil {
		t.Fatal(err)
	}
	if err := ref.Forward(b, img); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(a, b); d > tolFor(10*12) {
		t.Errorf("planner-built real plan diverges from default by %g", d)
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
