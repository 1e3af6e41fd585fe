package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(N²) reference implementation every strategy is
// checked against.
func naiveDFT(x []complex128, dir Direction) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if dir == Inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			acc += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = acc
	}
	return out
}

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return x
}

func maxAbsDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// tolFor scales the comparison tolerance with transform size: rounding
// error grows roughly with log N and the magnitude of partial sums.
func tolFor(n int) float64 { return 1e-9 * float64(n) }

func TestPlanMatchesNaiveDFTAllSizes(t *testing.T) {
	// Every size from 1..128 exercises radix-2, every mixed-radix
	// codelet, the generic prime butterfly, and Bluestein (primes > 61
	// appear at 67, 71, ...).
	for n := 1; n <= 128; n++ {
		for _, dir := range []Direction{Forward, Inverse} {
			x := randComplex(n, int64(n)*31+int64(dir))
			want := naiveDFT(x, dir)
			p, err := NewPlan(n, dir, PlanOpts{})
			if err != nil {
				t.Fatalf("NewPlan(%d,%v): %v", n, dir, err)
			}
			got := append([]complex128(nil), x...)
			if err := p.Execute(got); err != nil {
				t.Fatalf("Execute(%d,%v): %v", n, dir, err)
			}
			if d := maxAbsDiff(got, want); d > tolFor(n) {
				t.Errorf("n=%d dir=%v strat=%s: max diff %g", n, dir, p.Strategy(), d)
			}
		}
	}
}

func TestPlanMatchesNaiveDFTAwkwardSizes(t *testing.T) {
	// Sizes shaped like the paper's tiles: 1392 = 2⁴·3·29 and
	// 1040 = 2⁴·5·13 in miniature, plus a large prime.
	sizes := []int{174, 232, 348, 260, 520, 1392, 1040, 257, 509}
	for _, n := range sizes {
		x := randComplex(n, int64(n))
		want := naiveDFT(x, Forward)
		p, err := NewPlan(n, Forward, PlanOpts{})
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		got := append([]complex128(nil), x...)
		if err := p.Execute(got); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, want); d > tolFor(n) {
			t.Errorf("n=%d strat=%s: max diff %g", n, p.Strategy(), d)
		}
	}
}

func TestAllStrategiesAgree(t *testing.T) {
	// Where several strategies are legal they must produce the same
	// spectrum, to rounding.
	cases := []struct {
		n      int
		strats []strategy
	}{
		{64, []strategy{stratRadix2, stratMixed, stratBluestein, stratDFT}},
		{60, []strategy{stratMixed, stratBluestein, stratDFT}},
		{29, []strategy{stratMixed, stratBluestein, stratDFT}}, // prime ≤ 61: mixed = generic butterfly
		{120, []strategy{stratMixed, stratBluestein}},
	}
	for _, tc := range cases {
		x := randComplex(tc.n, 42)
		var ref []complex128
		for _, s := range tc.strats {
			p := newPlan(tc.n, Forward, s, PlanOpts{})
			got := append([]complex128(nil), x...)
			if err := p.Execute(got); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = got
				continue
			}
			if d := maxAbsDiff(got, ref); d > tolFor(tc.n) {
				t.Errorf("n=%d strat=%s disagrees with %s: %g", tc.n, s, tc.strats[0], d)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// forward then normalized inverse must reproduce the input, for
	// arbitrary data and a spread of sizes (property-based).
	f := func(seed int64, sizeSel uint8) bool {
		sizes := []int{2, 3, 8, 12, 17, 29, 60, 64, 97, 120, 174, 256}
		n := sizes[int(sizeSel)%len(sizes)]
		x := randComplex(n, seed)
		fwd, _ := NewPlan(n, Forward, PlanOpts{})
		inv, _ := NewPlan(n, Inverse, PlanOpts{NormalizeInverse: true})
		y := append([]complex128(nil), x...)
		if err := fwd.Execute(y); err != nil {
			return false
		}
		if err := inv.Execute(y); err != nil {
			return false
		}
		return maxAbsDiff(y, x) < tolFor(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	// FFT(a·x + b·y) = a·FFT(x) + b·FFT(y).
	f := func(seed int64, ar, br float64) bool {
		const n = 48
		a := complex(math.Mod(ar, 4), 0)
		b := complex(math.Mod(br, 4), 0)
		x := randComplex(n, seed)
		y := randComplex(n, seed+1)
		p, _ := NewPlan(n, Forward, PlanOpts{})

		mix := make([]complex128, n)
		for i := range mix {
			mix[i] = a*x[i] + b*y[i]
		}
		if err := p.Execute(mix); err != nil {
			return false
		}
		fx := append([]complex128(nil), x...)
		fy := append([]complex128(nil), y...)
		if err := p.Execute(fx); err != nil {
			return false
		}
		if err := p.Execute(fy); err != nil {
			return false
		}
		for i := range fx {
			fx[i] = a*fx[i] + b*fy[i]
		}
		return maxAbsDiff(mix, fx) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// Σ|x|² = (1/N)·Σ|X|².
	f := func(seed int64) bool {
		const n = 90 // 2·3²·5 exercises mixed radix
		x := randComplex(n, seed)
		var eIn float64
		for _, v := range x {
			eIn += real(v)*real(v) + imag(v)*imag(v)
		}
		p, _ := NewPlan(n, Forward, PlanOpts{})
		if err := p.Execute(x); err != nil {
			return false
		}
		var eOut float64
		for _, v := range x {
			eOut += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(eOut/float64(n)-eIn) < 1e-8*eIn+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestShiftTheorem(t *testing.T) {
	// A circular shift by s multiplies bin k by exp(-2πi k s/N). This is
	// the property phase correlation (PCIAM) relies on.
	const n = 96
	const s = 17
	x := randComplex(n, 7)
	shifted := make([]complex128, n)
	for i := range shifted {
		shifted[i] = x[(i-s+n)%n]
	}
	p, _ := NewPlan(n, Forward, PlanOpts{})
	fx := append([]complex128(nil), x...)
	fs := shifted
	if err := p.Execute(fx); err != nil {
		t.Fatal(err)
	}
	if err := p.Execute(fs); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		phase := cmplx.Exp(complex(0, -2*math.Pi*float64(k)*float64(s)/float64(n)))
		want := fx[k] * phase
		if cmplx.Abs(fs[k]-want) > 1e-9*float64(n) {
			t.Fatalf("bin %d: got %v want %v", k, fs[k], want)
		}
	}
}

func TestImpulseAndDCSpectra(t *testing.T) {
	// δ[0] → flat spectrum of ones; constant 1 → N·δ[0].
	const n = 30
	imp := make([]complex128, n)
	imp[0] = 1
	p, _ := NewPlan(n, Forward, PlanOpts{})
	if err := p.Execute(imp); err != nil {
		t.Fatal(err)
	}
	for k, v := range imp {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse bin %d = %v, want 1", k, v)
		}
	}
	dc := make([]complex128, n)
	for i := range dc {
		dc[i] = 1
	}
	if err := p.Execute(dc); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(dc[0]-complex(float64(n), 0)) > 1e-9 {
		t.Fatalf("DC bin = %v, want %d", dc[0], n)
	}
	for k := 1; k < n; k++ {
		if cmplx.Abs(dc[k]) > 1e-9 {
			t.Fatalf("bin %d = %v, want 0", k, dc[k])
		}
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := NewPlan(0, Forward, PlanOpts{}); err == nil {
		t.Error("NewPlan(0) should fail")
	}
	if _, err := NewPlan(-3, Forward, PlanOpts{}); err == nil {
		t.Error("NewPlan(-3) should fail")
	}
	p, _ := NewPlan(8, Forward, PlanOpts{})
	if err := p.Execute(make([]complex128, 7)); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestFactorize(t *testing.T) {
	cases := map[int][]int{
		1:    nil,
		2:    {2},
		12:   {2, 2, 3},
		1392: {2, 2, 2, 2, 3, 29},
		1040: {2, 2, 2, 2, 5, 13},
		97:   {97},
	}
	for n, want := range cases {
		got := factorize(n)
		if len(got) != len(want) {
			t.Errorf("factorize(%d) = %v, want %v", n, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("factorize(%d) = %v, want %v", n, got, want)
				break
			}
		}
	}
}

func TestFactorizeProductProperty(t *testing.T) {
	f := func(m uint16) bool {
		n := int(m)%5000 + 2
		prod := 1
		for _, f := range factorize(n) {
			prod *= f
		}
		return prod == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFastLengths(t *testing.T) {
	if !IsFastLength(1536) {
		t.Error("1536 = 2⁹·3 should be fast")
	}
	if IsFastLength(1392) {
		t.Error("1392 has factor 29, not fast")
	}
	if got := NextFastLength(1392); got != 1400 { // 1400 = 2³·5²·7
		t.Errorf("NextFastLength(1392) = %d, want 1400", got)
	}
	if got := NextFastLength(1040); got != 1050 { // 1050 = 2·3·5²·7
		t.Errorf("NextFastLength(1040) = %d, want 1050", got)
	}
	if NextFastLength(64) != 64 {
		t.Error("fast lengths map to themselves")
	}
}

func TestStrategySelection(t *testing.T) {
	cases := map[int]string{
		4:    "dft",
		64:   "radix2",
		60:   "mixed",
		1392: "mixed", // 29 ≤ maxDirectPrime
		67:   "bluestein",
		514:  "bluestein", // 2·257
	}
	for n, want := range cases {
		p, err := NewPlan(n, Forward, PlanOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Strategy() != want {
			t.Errorf("n=%d: strategy %s, want %s", n, p.Strategy(), want)
		}
	}
}

// stockham is the Stockham autosort radix-2 FFT (Van Loan's framework):
// each pass writes its butterflies to the other buffer in sorted order,
// so no bit reversal is needed.
func stockham(x, tw []complex128) {
	n := len(x)
	src, dst := x, make([]complex128, n)
	for L := 1; L < n; L <<= 1 {
		step := n / (2 * L)
		for j := 0; j < L; j++ {
			w := tw[j*step]
			for k := 0; k < step; k++ {
				c := src[j*2*step+k]
				d := src[j*2*step+step+k] * w
				dst[j*step+k] = c + d
				dst[(j+L)*step+k] = c - d
			}
		}
		src, dst = dst, src
	}
	copy(x, src)
}

// TestStockhamAgreesWithRadix2 is why the package has one radix-2
// algorithm: the autosort one computes the same bits at every length and
// in both directions, so there is nothing to choose between them, and
// radix2InPlace is the faster (EXPERIMENTS.md "Planning by rule").
func TestStockhamAgreesWithRadix2(t *testing.T) {
	for n := 2; n <= 2048; n <<= 1 {
		for _, dir := range []Direction{Forward, Inverse} {
			x := randComplex(n, int64(n)+int64(dir)*7)
			a := append([]complex128(nil), x...)
			b := append([]complex128(nil), x...)
			radix2InPlace(a, twiddleTable(n, dir))
			stockham(b, twiddleTable(n, dir))
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("n=%d dir=%v bin %d: radix2 %v, stockham %v", n, dir, i, a[i], b[i])
				}
			}
		}
	}
}
