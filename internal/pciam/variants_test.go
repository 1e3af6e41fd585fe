package pciam

import (
	"math"
	"testing"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/tile"
)

// oracleDisplace is the displacement of b relative to a computed at an
// explicit pw×ph frame from exported primitives only — the tile's frame
// staging, serial fft plans, the NCC as its own pass, the k-peak search
// and the CCF resolution — in the real or the complex layout. The
// complex layout is the paper's baseline: full complex transforms, kept
// here as the reference the one production layout is held to. It is
// also how a test gets a frame the size rule would not choose for the
// tile: the rule has no option to override.
func oracleDisplace(t testing.TB, a, b *tile.Gray16, pw, ph int, real bool, k int) tile.Displacement {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	pix := make([]float64, pw*ph)
	var peaks []Peak
	if real {
		plan, err := fft.NewRealPlan2DOpts(ph, pw, fft.Real2DOpts{Exec: fft.ExecSerial})
		must(err)
		spectrum := func(img *tile.Gray16) []complex128 {
			img.ToFloatFrame(pix, pw)
			out := make([]complex128, ph*(pw/2+1))
			must(plan.Forward(out, pix))
			return out
		}
		fa, fb := spectrum(a), spectrum(b)
		NCCSpectrum(fa, fa, fb)
		must(plan.Inverse(pix, fa))
		peaks = topPeaksInto(nil, pix, pw, ph, k)
	} else {
		inv, err := fft.NewPlan2D(ph, pw, fft.Inverse, fft.Plan2DOpts{Exec: fft.ExecSerial})
		must(err)
		fa, fb := complexSpectrum(t, a, pw, ph), complexSpectrum(t, b, pw, ph)
		NCCSpectrum(fa, fa, fb)
		must(inv.Execute(fa))
		peaks = TopPeaks(fa, pw, ph, k)
	}
	best := tile.Displacement{Corr: math.Inf(-1)}
	for i, p := range peaks {
		if d := ResolveIn(a, b, p.X, p.Y, pw, ph); i == 0 || d.Corr > best.Corr {
			best = d
		}
	}
	return best
}

// complexSpectrum is img's full complex forward transform in a pw×ph
// frame, through a serial plan.
func complexSpectrum(t testing.TB, img *tile.Gray16, pw, ph int) []complex128 {
	t.Helper()
	fwd, err := fft.NewPlan2D(ph, pw, fft.Forward, fft.Plan2DOpts{Exec: fft.ExecSerial})
	if err != nil {
		t.Fatal(err)
	}
	pix := make([]float64, pw*ph)
	img.ToFloatFrame(pix, pw)
	out := make([]complex128, pw*ph)
	for i, v := range pix {
		out[i] = complex(v, 0)
	}
	if err := fwd.Execute(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPaddedAlignerDims: the aligner transforms at the size rule's
// frame — for this 29- and 13-factor size a padded one — whatever
// planner the options carry, a nil one included.
func TestPaddedAlignerDims(t *testing.T) {
	for _, pl := range []*fft.Planner{nil, fft.NewPlanner(fft.Estimate), fft.NewPlanner(fft.Measure), fft.NewPlanner(fft.Patient)} {
		al := mustAligner(t, 174, 130, Options{Planner: pl}) // 174=2·3·29, 130=2·5·13
		if pw, ph := al.TransformDims(); pw != 180 || ph != 144 {
			t.Errorf("planner %v: 174x130 transforms at %dx%d, want 180x144", pl, pw, ph)
		}
		al.Close()
	}
}

func TestPaddedAlignerRecoversShifts(t *testing.T) {
	al := mustAligner(t, 116, 87, Options{}) // transforms at 120×90
	defer al.Close()
	for _, tc := range []struct{ dx, dy int }{{70, 3}, {70, -3}, {5, 50}, {-4, 50}} {
		a, b := shiftedPair(116, 87, tc.dx, tc.dy, int64(tc.dx*7+tc.dy))
		d, err := al.DisplaceTiles(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d.X != tc.dx || d.Y != tc.dy {
			t.Errorf("padded shift (%d,%d): got (%d,%d) corr=%.3f", tc.dx, tc.dy, d.X, d.Y, d.Corr)
		}
	}
}

// TestPaddedMatchesBaselineOnDataset holds the aligner at the rule's
// padded frame (174×130 → 180×144) to the displacements of the complex
// transform at the exact tile size, which the oracle computes. It is
// also held to the oracle at its own frame, correlation included, with
// == — in the complex and in the real layout — both there and at a size
// the rule keeps.
func TestPaddedMatchesBaselineOnDataset(t *testing.T) {
	for _, sz := range [][2]int{{174, 130}, {128, 96}} {
		w, h := sz[0], sz[1]
		p := imagegen.DefaultParams(3, 4, w, h)
		ds, err := imagegen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		al := mustAligner(t, w, h, Options{})
		pw, ph := al.TransformDims()
		for _, pr := range p.Grid.Pairs() {
			a, b := ds.Tile(pr.Neighbor()), ds.Tile(pr.Coord)
			d, err := al.DisplaceTiles(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if exact := oracleDisplace(t, a, b, w, h, false, 1); d.X != exact.X || d.Y != exact.Y {
				t.Errorf("%dx%d at %dx%d pair %v: %+v, exact size %+v", w, h, pw, ph, pr, d, exact)
			}
			for _, real := range []bool{false, true} {
				if own := oracleDisplace(t, a, b, pw, ph, real, 1); d != own {
					t.Errorf("%dx%d at %dx%d pair %v: %+v, oracle (real=%v) at the same frame %+v", w, h, pw, ph, pr, d, real, own)
				}
			}
		}
		al.Close()
	}
}

// TestPaddedAccuracyOnAwkwardTiles scores the padded transform against
// ground truth where the size rule really pads: 5 seeded 3×4 plates — 85
// pairs — of 116×87 = 4·29 × 3·29 tiles at 120×90, and of 232×174 at
// 240×180; the exact-size arm is the oracle's. Tiles this
// small leave a few feature-poor pairs on which the exact size is wrong
// too; the frame changes which, not how many. Pinned: the padded size
// finds within 1 px of truth no fewer than two pairs short of what the
// exact size finds, and disagrees with it on at most a tenth of the
// pairs (each listed). A zero margin instead of tile.ToFloatFrame's
// continuation fails this outright: 3 of 85 right at 116×87.
func TestPaddedAccuracyOnAwkwardTiles(t *testing.T) {
	for _, sz := range [][4]int{{116, 87, 120, 90}, {232, 174, 240, 180}} {
		w, h, pw, ph := sz[0], sz[1], sz[2], sz[3]
		padded, err := NewRealAligner(w, h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if gw, gh := padded.TransformDims(); gw != pw || gh != ph {
			t.Fatalf("%dx%d transforms at %dx%d, want %dx%d", w, h, gw, gh, pw, ph)
		}
		pairs, differ, okExact, okPadded := 0, 0, 0, 0
		for seed := int64(1); seed <= 5; seed++ {
			p := imagegen.DefaultParams(3, 4, w, h)
			p.Seed = seed
			ds, err := imagegen.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range p.Grid.Pairs() {
				a, b := ds.Tile(pr.Neighbor()), ds.Tile(pr.Coord)
				de := oracleDisplace(t, a, b, w, h, true, 1)
				dp, err := padded.DisplaceTiles(a, b)
				if err != nil {
					t.Fatal(err)
				}
				truth := ds.TrueDisplacement(pr)
				near := func(d tile.Displacement) bool { return abs(d.X-truth.X) <= 1 && abs(d.Y-truth.Y) <= 1 }
				pairs++
				if near(de) {
					okExact++
				}
				if near(dp) {
					okPadded++
				}
				if de.X != dp.X || de.Y != dp.Y {
					differ++
					t.Logf("%dx%d seed %d pair %v: truth (%d,%d), exact (%d,%d), at %dx%d (%d,%d)",
						w, h, seed, pr, truth.X, truth.Y, de.X, de.Y, pw, ph, dp.X, dp.Y)
				}
			}
		}
		padded.Close()
		t.Logf("%dx%d: %d pairs, within 1 px of truth: exact %d, at %dx%d %d; %d differ", w, h, pairs, okExact, pw, ph, okPadded, differ)
		if pairs < 50 || okPadded < okExact-2 || differ > pairs/10 {
			t.Errorf("%dx%d at %dx%d: %d/%d pairs within 1 px (exact size: %d), %d differ", w, h, pw, ph, okPadded, pairs, okExact, differ)
		}
	}
}

// TestRealAlignerMatchesBaseline holds the half-spectrum aligner to the
// complex oracle at the same frame with ==, correlation included, for
// one peak and for the multi-peak search: the real surface's peaks are
// the complex surface's.
func TestRealAlignerMatchesBaseline(t *testing.T) {
	p := imagegen.DefaultParams(2, 3, 128, 96)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3} {
		al := mustAligner(t, 128, 96, Options{NPeaks: k})
		for _, pr := range p.Grid.Pairs() {
			a, b := ds.Tile(pr.Neighbor()), ds.Tile(pr.Coord)
			d, err := al.DisplaceTiles(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleDisplace(t, a, b, 128, 96, false, k); d != want {
				t.Errorf("npeaks=%d pair %v: c2c oracle (%d,%d,%v), r2c (%d,%d,%v)",
					k, pr, want.X, want.Y, want.Corr, d.X, d.Y, d.Corr)
			}
		}
		al.Close()
	}
}

func TestRealAlignerHalfSpectrumSize(t *testing.T) {
	al, err := NewRealAligner(128, 96, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer al.Close()
	f, err := al.Transform(tile.NewGray16(128, 96))
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 96*(128/2+1) {
		t.Errorf("half spectrum has %d bins, want %d", len(f), 96*65)
	}
	// roughly half the complex path's storage
	if len(f)*2 >= 128*96*2 {
		t.Error("half spectrum not smaller than full")
	}
}

func TestVariantErrors(t *testing.T) {
	if al, err := NewRealAligner(1, 4, Options{}); err == nil {
		al.Close()
		t.Error("w<2 should fail")
	}
	ra, err := NewRealAligner(22, 14, Options{}) // transforms at 24×14
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	if _, err := ra.Transform(tile.NewGray16(8, 8)); err == nil {
		t.Error("size mismatch should fail")
	}
	a := tile.NewGray16(22, 14)
	if _, err := ra.Displace(a, a, make([]complex128, 3), make([]complex128, 3)); err == nil {
		t.Error("bad half-spectrum length should fail")
	}
}

func TestSubpixelPeak(t *testing.T) {
	// Build a surface with a known subpixel maximum near (5, 3): values
	// from a parabola centered at x=5.3, y=3.0.
	const w, h = 12, 8
	data := make([]complex128, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dx := float64(x) - 5.3
			dy := float64(y) - 3.0
			data[y*w+x] = complex(100-dx*dx-dy*dy, 0)
		}
	}
	sx, sy := SubpixelPeak(data, w, h, 5, 3)
	if math.Abs(sx-5.3) > 0.01 || math.Abs(sy-3.0) > 0.01 {
		t.Errorf("subpixel peak (%.3f, %.3f), want (5.3, 3.0)", sx, sy)
	}
	// Degenerate flat surface: refinement must not move the peak.
	flat := make([]complex128, w*h)
	sx, sy = SubpixelPeak(flat, w, h, 2, 2)
	if sx != 2 || sy != 2 {
		t.Errorf("flat surface moved peak to (%.2f, %.2f)", sx, sy)
	}
	// Offsets are clamped to ±0.5 even on pathological data.
	spike := make([]complex128, w*h)
	spike[3*w+5] = 1
	spike[3*w+6] = complex(0.999999, 0)
	sx, _ = SubpixelPeak(spike, w, h, 5, 3)
	if sx < 4.5 || sx > 5.5 {
		t.Errorf("subpixel offset unclamped: %g", sx)
	}
}

func TestSubpixelImprovesFractionalShift(t *testing.T) {
	// Shift a tile by a true fractional amount via a Fourier-domain
	// phase ramp (exact circular shift); the subpixel estimate must
	// land near the fractional value where integer peak search cannot.
	const w, h = 64, 48
	const shiftX = 20.4
	a, _ := shiftedPair(w, h, 0, 0, 42)
	fa := complexSpectrum(t, a, w, h)

	// B's spectrum = A's spectrum with the shift phase applied.
	fb := append([]complex128(nil), fa...)
	for ky := 0; ky < h; ky++ {
		for kx := 0; kx < w; kx++ {
			// signed frequency index for a proper real shift
			fx := kx
			if fx > w/2 {
				fx -= w
			}
			ang := -2 * math.Pi * float64(fx) * shiftX / float64(w)
			fb[ky*w+kx] *= complex(math.Cos(ang), math.Sin(ang))
		}
	}
	inv, err := fft.NewPlan2D(h, w, fft.Inverse, fft.Plan2DOpts{})
	if err != nil {
		t.Fatal(err)
	}
	surf := make([]complex128, w*h)
	NCCSpectrum(surf, fb, fa) // b relative to a: peak at +shiftX
	if err := inv.Execute(surf); err != nil {
		t.Fatal(err)
	}
	i, _ := MaxAbs(surf)
	px, py := i%w, i/w
	if px != 20 && px != 21 {
		t.Fatalf("integer peak at x=%d, want 20 or 21", px)
	}
	sx, _ := SubpixelPeak(surf, w, h, px, py)
	if math.Abs(sx-shiftX) > 0.25 {
		t.Errorf("subpixel x = %.3f, want ≈ %.1f", sx, shiftX)
	}
}
