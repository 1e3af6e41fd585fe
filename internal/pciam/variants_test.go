package pciam

import (
	"math"
	"testing"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/tile"
)

func TestPaddedAlignerDims(t *testing.T) {
	al, err := NewPaddedAligner(174, 130, Options{}) // 174=2·3·29, 130=2·5·13
	if err != nil {
		t.Fatal(err)
	}
	defer al.Close()
	pw, ph := al.TransformDims()
	if !fft.IsFastLength(pw) || !fft.IsFastLength(ph) {
		t.Errorf("padded dims %dx%d not fast", pw, ph)
	}
	if pw < 174 || ph < 130 {
		t.Errorf("padded dims %dx%d shrink the tile", pw, ph)
	}
}

func TestPaddedAlignerRecoversShifts(t *testing.T) {
	al, err := NewPaddedAligner(64, 48, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer al.Close()
	for _, tc := range []struct{ dx, dy int }{{40, 3}, {40, -3}, {5, 30}, {-4, 30}} {
		a, b := shiftedPair(64, 48, tc.dx, tc.dy, int64(tc.dx*7+tc.dy))
		d, err := al.DisplaceTiles(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d.X != tc.dx || d.Y != tc.dy {
			t.Errorf("padded shift (%d,%d): got (%d,%d) corr=%.3f", tc.dx, tc.dy, d.X, d.Y, d.Corr)
		}
	}
}

// TestPaddedMatchesBaselineOnDataset holds the padded aligner to the
// baseline's displacements at a size it really pads (174×130 → 175×135),
// and to the baseline's whole result — correlation included, ==, since it
// is then the same chain at the same size — at a size that is already
// fast.
func TestPaddedMatchesBaselineOnDataset(t *testing.T) {
	for _, sz := range []struct {
		w, h int
		pads bool
	}{{174, 130, true}, {128, 96, false}} {
		p := imagegen.DefaultParams(2, 3, sz.w, sz.h)
		ds, err := imagegen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		base := mustAligner(t, sz.w, sz.h, Options{})
		padded, err := NewPaddedAligner(sz.w, sz.h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if pw, ph := padded.TransformDims(); (pw != sz.w || ph != sz.h) != sz.pads {
			t.Fatalf("%dx%d transforms at %dx%d, want padding=%v", sz.w, sz.h, pw, ph, sz.pads)
		}
		for _, pr := range p.Grid.Pairs() {
			a, b := ds.Tile(pr.Neighbor()), ds.Tile(pr.Coord)
			d1, err := base.DisplaceTiles(a, b)
			if err != nil {
				t.Fatal(err)
			}
			d2, err := padded.DisplaceTiles(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if d1.X != d2.X || d1.Y != d2.Y || (!sz.pads && d1 != d2) {
				t.Errorf("%dx%d pair %v: baseline %+v, padded %+v", sz.w, sz.h, pr, d1, d2)
			}
		}
		base.Close()
		padded.Close()
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
	if al, err := NewPaddedAligner(0, 4, Options{}); err == nil {
		al.Close()
		t.Error("invalid size should fail")
	}
	if al, err := NewRealAligner(1, 4, Options{}); err == nil {
		al.Close()
		t.Error("w<2 should fail")
	}
	pa, err := NewPaddedAligner(16, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	if _, err := pa.Transform(tile.NewGray16(8, 8)); err == nil {
		t.Error("size mismatch should fail")
	}
	ra, err := NewRealAligner(16, 16, Options{})
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
