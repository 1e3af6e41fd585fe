package pciam

import (
	"fmt"
	"math"
	"testing"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/tile"
)

// forcedSize returns a planner that holds the wisdom record "w×h tiles
// transform at pw×ph" for both layouts — how a test picks a transform
// size, there being no option for it.
func forcedSize(t testing.TB, w, h, pw, ph int) *fft.Planner {
	t.Helper()
	pl := fft.NewPlanner(fft.Estimate)
	rec := fmt.Sprintf(`[{"w":%d,"h":%d,"pw":%d,"ph":%d},{"w":%[1]d,"h":%[2]d,"real":true,"pw":%[3]d,"ph":%[4]d}]`, w, h, pw, ph)
	if err := pl.ImportWisdom([]byte(rec)); err != nil {
		t.Fatal(err)
	}
	return pl
}

// sizedAligner is what the two aligner types share for these tests.
type sizedAligner interface {
	DisplaceTiles(a, b *tile.Gray16) (tile.Displacement, error)
	TransformDims() (int, int)
	Close()
}

// bothLayouts builds the complex and the real aligner for w×h tiles
// under opts, keyed by layout name.
func bothLayouts(t testing.TB, w, h int, opts Options) map[string]sizedAligner {
	t.Helper()
	c, err := NewAligner(w, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRealAligner(w, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]sizedAligner{"complex": c, "real": r}
}

// TestPaddedAlignerDims: both aligners transform at the size the planner
// answers — a forced one exactly, a measured one never smaller than the
// tile and, where it pads this 29- and 13-factor size, even and fast.
func TestPaddedAlignerDims(t *testing.T) {
	for name, al := range bothLayouts(t, 174, 130, Options{Planner: forcedSize(t, 174, 130, 180, 144)}) {
		if pw, ph := al.TransformDims(); pw != 180 || ph != 144 {
			t.Errorf("%s: forced 180x144, transforms at %dx%d", name, pw, ph)
		}
		al.Close()
	}
	for name, al := range bothLayouts(t, 174, 130, Options{Planner: fft.NewPlanner(fft.Measure)}) { // 174=2·3·29, 130=2·5·13
		pw, ph := al.TransformDims()
		if pw < 174 || ph < 130 {
			t.Errorf("%s: planned dims %dx%d shrink the tile", name, pw, ph)
		}
		if (pw != 174 && (pw%2 != 0 || !fft.IsFastLength(pw))) || (ph != 130 && (ph%2 != 0 || !fft.IsFastLength(ph))) {
			t.Errorf("%s: padded dims %dx%d not even and fast", name, pw, ph)
		}
		al.Close()
	}
}

func TestPaddedAlignerRecoversShifts(t *testing.T) {
	for name, al := range bothLayouts(t, 64, 48, Options{Planner: forcedSize(t, 64, 48, 72, 50)}) {
		for _, tc := range []struct{ dx, dy int }{{40, 3}, {40, -3}, {5, 30}, {-4, 30}} {
			a, b := shiftedPair(64, 48, tc.dx, tc.dy, int64(tc.dx*7+tc.dy))
			d, err := al.DisplaceTiles(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if d.X != tc.dx || d.Y != tc.dy {
				t.Errorf("%s padded shift (%d,%d): got (%d,%d) corr=%.3f", name, tc.dx, tc.dy, d.X, d.Y, d.Corr)
			}
		}
		al.Close()
	}
}

// TestPaddedMatchesBaselineOnDataset holds both layouts at a padded
// transform size (174×130 → 175×135; the odd width takes the real
// layout's full-length row fallback) to the exact-size complex
// baseline's displacements. At a size the planner keeps (a forced
// record saying so), the whole result is held with ==, correlation
// included: it is then the same chain at the same size.
func TestPaddedMatchesBaselineOnDataset(t *testing.T) {
	for _, sz := range [][4]int{{174, 130, 175, 135}, {128, 96, 128, 96}} {
		w, h, pw, ph := sz[0], sz[1], sz[2], sz[3]
		p := imagegen.DefaultParams(3, 4, w, h)
		ds, err := imagegen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		base := mustAligner(t, w, h, Options{})
		padded := bothLayouts(t, w, h, Options{Planner: forcedSize(t, w, h, pw, ph)})
		for _, pr := range p.Grid.Pairs() {
			a, b := ds.Tile(pr.Neighbor()), ds.Tile(pr.Coord)
			d1, err := base.DisplaceTiles(a, b)
			if err != nil {
				t.Fatal(err)
			}
			for name, al := range padded {
				d2, err := al.DisplaceTiles(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if d1.X != d2.X || d1.Y != d2.Y || (pw == w && name == "complex" && d1 != d2) {
					t.Errorf("%dx%d at %dx%d pair %v: baseline %+v, %s %+v", w, h, pw, ph, pr, d1, name, d2)
				}
			}
		}
		base.Close()
		for _, al := range padded {
			al.Close()
		}
	}
}

// TestPaddedAccuracyOnAwkwardTiles scores the padded transform against
// ground truth where the planner really pads: 5 seeded 3×4 plates — 85
// pairs — of 116×87 = 4·29 × 3·29 tiles at 120×90, and of 232×174 at
// 240×180, the sizes a measuring planner picks for them. Tiles this
// small leave a few feature-poor pairs on which the exact size is wrong
// too; the frame changes which, not how many. Pinned: the padded size
// finds within 1 px of truth no fewer than two pairs short of what the
// exact size finds, and disagrees with it on at most a tenth of the
// pairs (each listed). A zero margin instead of tile.ToFloatFrame's
// continuation fails this outright: 3 of 85 right at 116×87.
func TestPaddedAccuracyOnAwkwardTiles(t *testing.T) {
	for _, sz := range [][4]int{{116, 87, 120, 90}, {232, 174, 240, 180}} {
		w, h, pw, ph := sz[0], sz[1], sz[2], sz[3]
		exact, err := NewRealAligner(w, h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		padded, err := NewRealAligner(w, h, Options{Planner: forcedSize(t, w, h, pw, ph)})
		if err != nil {
			t.Fatal(err)
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
				de, err := exact.DisplaceTiles(a, b)
				if err != nil {
					t.Fatal(err)
				}
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
		exact.Close()
		padded.Close()
		t.Logf("%dx%d: %d pairs, within 1 px of truth: exact %d, at %dx%d %d; %d differ", w, h, pairs, okExact, pw, ph, okPadded, differ)
		if pairs < 50 || okPadded < okExact-2 || differ > pairs/10 {
			t.Errorf("%dx%d at %dx%d: %d/%d pairs within 1 px (exact size: %d), %d differ", w, h, pw, ph, okPadded, pairs, okExact, differ)
		}
	}
}

func TestRealAlignerMatchesBaseline(t *testing.T) {
	p := imagegen.DefaultParams(2, 3, 128, 96)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	base := mustAligner(t, 128, 96, Options{})
	real2c, err := NewRealAligner(128, 96, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer real2c.Close()
	for _, pr := range p.Grid.Pairs() {
		a, b := ds.Tile(pr.Neighbor()), ds.Tile(pr.Coord)
		d1, err := base.DisplaceTiles(a, b)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := real2c.DisplaceTiles(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d1.X != d2.X || d1.Y != d2.Y || math.Abs(d1.Corr-d2.Corr) > 1e-9 {
			t.Errorf("pair %v: c2c (%d,%d,%.4f), r2c (%d,%d,%.4f)",
				pr, d1.X, d1.Y, d1.Corr, d2.X, d2.Y, d2.Corr)
		}
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
	if al, err := NewAligner(0, 4, Options{}); err == nil {
		al.Close()
		t.Error("invalid size should fail")
	}
	if al, err := NewRealAligner(1, 4, Options{}); err == nil {
		al.Close()
		t.Error("w<2 should fail")
	}
	pa, err := NewAligner(16, 16, Options{Planner: forcedSize(t, 16, 16, 18, 20)})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	if _, err := pa.Transform(tile.NewGray16(8, 8)); err == nil {
		t.Error("size mismatch should fail")
	}
	ra, err := NewRealAligner(16, 16, Options{Planner: forcedSize(t, 16, 16, 18, 20)})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	if _, err := ra.Transform(tile.NewGray16(8, 8)); err == nil {
		t.Error("size mismatch should fail")
	}
	a := tile.NewGray16(16, 16)
	if _, err := pa.Displace(a, a, make([]complex128, 3), make([]complex128, 3)); err == nil {
		t.Error("bad transform length should fail")
	}
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
	al := mustAligner(t, w, h, Options{})
	fa := mustTransform(al, a)

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
	NCCSpectrum(al.work, fb, fa) // b relative to a: peak at +shiftX
	if err := al.inv.Execute(al.work); err != nil {
		t.Fatal(err)
	}
	i, _ := MaxAbs(al.work)
	px, py := i%w, i/w
	if px != 20 && px != 21 {
		t.Fatalf("integer peak at x=%d, want 20 or 21", px)
	}
	sx, _ := SubpixelPeak(al.work, w, h, px, py)
	if math.Abs(sx-shiftX) > 0.25 {
		t.Errorf("subpixel x = %.3f, want ≈ %.1f", sx, shiftX)
	}
}
