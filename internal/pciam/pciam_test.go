package pciam

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/tile"
)

// shiftedPair cuts two overlapping w×h tiles out of a random texture such
// that b's origin sits at exactly (dx, dy) in a's frame.
func shiftedPair(w, h, dx, dy int, seed int64) (*tile.Gray16, *tile.Gray16) {
	rng := rand.New(rand.NewSource(seed))
	bigW := w + abs(dx) + 4
	bigH := h + abs(dy) + 4
	big := tile.NewGray16(bigW, bigH)
	for i := range big.Pix {
		big.Pix[i] = uint16(rng.Intn(60000))
	}
	// Smooth slightly so content is image-like rather than white noise.
	smooth := tile.NewGray16(bigW, bigH)
	for y := 1; y < bigH-1; y++ {
		for x := 1; x < bigW-1; x++ {
			s := int(big.At(x, y))*4 + int(big.At(x-1, y)) + int(big.At(x+1, y)) + int(big.At(x, y-1)) + int(big.At(x, y+1))
			smooth.Set(x, y, uint16(s/8))
		}
	}
	ax, ay := 2, 2
	if dx < 0 {
		ax += -dx
	}
	if dy < 0 {
		ay += -dy
	}
	bx, by := ax+dx, ay+dy
	return smooth.SubRect(ax, ay, w, h), smooth.SubRect(bx, by, w, h)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func mustAligner(t testing.TB, w, h int, opts Options) *RealAligner {
	t.Helper()
	al, err := NewRealAligner(w, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	return al
}

func TestDisplaceRecoversKnownShift(t *testing.T) {
	cases := []struct{ dx, dy int }{
		{40, 0}, {40, 3}, {40, -3}, {0, 30}, {5, 30}, {-4, 30}, {10, 10},
	}
	al := mustAligner(t, 64, 48, Options{})
	for _, tc := range cases {
		a, b := shiftedPair(64, 48, tc.dx, tc.dy, int64(tc.dx*100+tc.dy))
		d, err := al.DisplaceTiles(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d.X != tc.dx || d.Y != tc.dy {
			t.Errorf("shift (%d,%d): recovered (%d,%d) corr=%.3f", tc.dx, tc.dy, d.X, d.Y, d.Corr)
		}
		if d.Corr < 0.9 {
			t.Errorf("shift (%d,%d): low confidence %.3f", tc.dx, tc.dy, d.Corr)
		}
	}
}

func TestDisplaceProperty(t *testing.T) {
	// Any in-range shift must be recovered exactly on textured input.
	al := mustAligner(t, 48, 48, Options{})
	f := func(seed int64, dxs, dys uint8) bool {
		dx := int(dxs)%20 + 10 // 10..29
		dy := int(dys)%13 - 6  // -6..6
		a, b := shiftedPair(48, 48, dx, dy, seed)
		d, err := al.Displace(a, b, mustTransform(al, a), mustTransform(al, b))
		if err != nil {
			return false
		}
		return d.X == dx && d.Y == dy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func mustTransform(al *RealAligner, g *tile.Gray16) []complex128 {
	f, err := al.Transform(g)
	if err != nil {
		panic(err)
	}
	return f
}

func TestDisplaceOnSyntheticDataset(t *testing.T) {
	// End-to-end against the generator's ground truth, including
	// vignetting and sensor noise.
	// Tile size matters here: phase correlation needs the overlap to be
	// a non-negligible fraction of the spectrum's energy, which the
	// paper's 1392×1040 tiles give it for free. 128×96 is the smallest
	// size that is fully reliable at the default 20% overlap.
	p := imagegen.DefaultParams(3, 3, 128, 96)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	al := mustAligner(t, 128, 96, Options{})
	for _, pr := range p.Grid.Pairs() {
		a := ds.Tile(pr.Neighbor())
		b := ds.Tile(pr.Coord)
		got, err := al.DisplaceTiles(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := ds.TrueDisplacement(pr)
		if abs(got.X-want.X) > 1 || abs(got.Y-want.Y) > 1 {
			t.Errorf("pair %v %s: got (%d,%d), truth (%d,%d), corr %.3f",
				pr.Coord, pr.Dir, got.X, got.Y, want.X, want.Y, got.Corr)
		}
	}
}

func TestNPeaksHelpsSparseTiles(t *testing.T) {
	// With nearly featureless overlap, the single-peak answer can lock
	// onto a noise peak; n-peaks may consider more hypotheses. At
	// minimum it must never do worse on feature-rich data.
	p := imagegen.DefaultParams(2, 2, 128, 96)
	p.ColonyDensity = 3 // sparse colonies: the paper's hard case
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	multi := mustAligner(t, 128, 96, Options{NPeaks: 3})
	for _, pr := range p.Grid.Pairs() {
		got, err := multi.DisplaceTiles(ds.Tile(pr.Neighbor()), ds.Tile(pr.Coord))
		if err != nil {
			t.Fatal(err)
		}
		want := ds.TrueDisplacement(pr)
		if abs(got.X-want.X) > 1 || abs(got.Y-want.Y) > 1 {
			t.Errorf("npeaks=3 pair %v: got (%d,%d) want (%d,%d)", pr.Coord, got.X, got.Y, want.X, want.Y)
		}
	}
}

func TestNCCSpectrumUnitMagnitude(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fa := make([]complex128, 64)
	fb := make([]complex128, 64)
	for i := range fa {
		fa[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		fb[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	fa[7] = 0 // force a zero product
	dst := make([]complex128, 64)
	NCCSpectrum(dst, fa, fb)
	for i, v := range dst {
		m := math.Hypot(real(v), imag(v))
		if i == 7 {
			if m != 0 {
				t.Errorf("zero product should map to 0, got %v", v)
			}
			continue
		}
		if math.Abs(m-1) > 1e-12 {
			t.Errorf("bin %d magnitude %g, want 1", i, m)
		}
	}
}

// MaxAbs reduces a complex surface to the index and magnitude of its
// largest absolute value — the complex oracle's max-reduction. |NCC⁻¹|
// is real up to rounding; using the larger component's magnitude
// matches the reference kernels.
func MaxAbs(data []complex128) (int, float64) {
	bi, bm := 0, -1.0
	for i, v := range data {
		m := math.Abs(real(v))
		if im := math.Abs(imag(v)); im > m {
			m = im
		}
		if m > bm {
			bm = m
			bi = i
		}
	}
	return bi, bm
}

// TopPeaks is the peak search over a complex h×w surface: MaxAbs for
// k=1, the production search over the magnitudes otherwise.
func TopPeaks(data []complex128, w, h, k int) []Peak {
	if k <= 1 {
		i, m := MaxAbs(data)
		return []Peak{{X: i % w, Y: i / w, Mag: m}}
	}
	mag := make([]float64, len(data))
	for i, v := range data {
		mag[i] = cmplx.Abs(v)
	}
	peaks := topPeaksInto(nil, mag, w, h, k)
	return peaks
}

// TestMaxAbsAndTopPeaks pins the peak search on a real surface, and that
// it finds on it exactly what the complex search finds on the same
// surface widened to complex.
func TestMaxAbsAndTopPeaks(t *testing.T) {
	surf := make([]float64, 8*8)
	surf[5] = 10  // (5,0)
	surf[6] = 9   // (6,0): adjacent to peak0, suppressed
	surf[36] = -8 // (4,4): far enough to stand alone
	data := make([]complex128, len(surf))
	for i, v := range surf {
		data[i] = complex(v, 0)
	}
	i, m := MaxAbsReal(surf)
	if i != 5 || m != 10 {
		t.Fatalf("MaxAbsReal = %d, %g", i, m)
	}
	if ci, cm := MaxAbs(data); ci != i || cm != m {
		t.Errorf("MaxAbs = %d, %g; MaxAbsReal = %d, %g", ci, cm, i, m)
	}
	for k := 1; k <= 3; k++ {
		peaks := topPeaksInto(nil, surf, 8, 8, k)
		want := TopPeaks(data, 8, 8, k)
		if len(peaks) != len(want) {
			t.Fatalf("k=%d: %d peaks on the real surface, %d on the complex one", k, len(peaks), len(want))
		}
		for j := range peaks {
			if peaks[j] != want[j] {
				t.Errorf("k=%d peak %d: real %+v, complex %+v", k, j, peaks[j], want[j])
			}
		}
		if k == 2 {
			if peaks[0].X != 5 || peaks[0].Y != 0 {
				t.Errorf("peak0 = %+v", peaks[0])
			}
			if peaks[1].X != 4 || peaks[1].Y != 4 {
				t.Errorf("peak1 = %+v (want the distant peak, neighbor suppressed)", peaks[1])
			}
		}
	}
}

func TestOverlapRegions(t *testing.T) {
	cases := []struct {
		dx, dy                 int
		ax, ay, bx, by, ow, oh int
		ok                     bool
	}{
		{0, 0, 0, 0, 0, 0, 10, 8, true},
		{3, 2, 3, 2, 0, 0, 7, 6, true},
		{-3, 2, 0, 2, 3, 0, 7, 6, true},
		{3, -2, 3, 0, 0, 2, 7, 6, true},
		{10, 0, 0, 0, 0, 0, 0, 0, false},
		{0, 8, 0, 0, 0, 0, 0, 0, false},
		{-10, 0, 0, 0, 0, 0, 0, 0, false},
	}
	for _, tc := range cases {
		ax, ay, bx, by, ow, oh, ok := OverlapRegions(10, 8, tc.dx, tc.dy)
		if ok != tc.ok {
			t.Errorf("(%d,%d): ok=%v want %v", tc.dx, tc.dy, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if ax != tc.ax || ay != tc.ay || bx != tc.bx || by != tc.by || ow != tc.ow || oh != tc.oh {
			t.Errorf("(%d,%d): got a(%d,%d) b(%d,%d) %dx%d", tc.dx, tc.dy, ax, ay, bx, by, ow, oh)
		}
	}
}

func TestOverlapRegionsProperty(t *testing.T) {
	// The two regions always have identical size and lie inside their
	// images; region size shrinks by exactly |dx|, |dy|.
	f := func(dxs, dys int8) bool {
		const w, h = 20, 16
		dx, dy := int(dxs)%w, int(dys)%h
		ax, ay, bx, by, ow, oh, ok := OverlapRegions(w, h, dx, dy)
		if !ok {
			return abs(dx) >= w || abs(dy) >= h
		}
		if ow != w-abs(dx) || oh != h-abs(dy) {
			return false
		}
		return ax >= 0 && ay >= 0 && bx >= 0 && by >= 0 &&
			ax+ow <= w && bx+ow <= w && ay+oh <= h && by+oh <= h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAlignerErrors(t *testing.T) {
	if al, err := NewRealAligner(0, 4, Options{}); err == nil {
		al.Close()
		t.Error("zero width should fail")
	}
	al := mustAligner(t, 8, 8, Options{})
	if _, err := al.Transform(tile.NewGray16(9, 8)); err == nil {
		t.Error("size mismatch should fail")
	}
	a := tile.NewGray16(8, 8)
	if _, err := al.Displace(a, a, make([]complex128, 3), make([]complex128, 64)); err == nil {
		t.Error("bad transform length should fail")
	}
}

func TestDegenerateTiles(t *testing.T) {
	// Two constant tiles: no information at all. Must not crash and
	// must report no confidence.
	al := mustAligner(t, 16, 16, Options{})
	a := tile.NewGray16(16, 16)
	b := tile.NewGray16(16, 16)
	for i := range a.Pix {
		a.Pix[i] = 1000
		b.Pix[i] = 1000
	}
	d, err := al.DisplaceTiles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Corr > 0 {
		t.Errorf("degenerate pair reported confidence %g", d.Corr)
	}
}
