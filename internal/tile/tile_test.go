package tile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGray16Basics(t *testing.T) {
	g := NewGray16(4, 3)
	if g.W != 4 || g.H != 3 || len(g.Pix) != 12 {
		t.Fatalf("bad dims: %dx%d len %d", g.W, g.H, len(g.Pix))
	}
	g.Set(2, 1, 777)
	if g.At(2, 1) != 777 {
		t.Errorf("At(2,1) = %d", g.At(2, 1))
	}
	if g.Bytes() != 24 {
		t.Errorf("Bytes() = %d, want 24", g.Bytes())
	}
	c := g.Clone()
	c.Set(0, 0, 1)
	if g.At(0, 0) == 1 {
		t.Error("Clone shares storage")
	}
}

func TestSubRect(t *testing.T) {
	g := NewGray16(5, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 5; x++ {
			g.Set(x, y, uint16(10*y+x))
		}
	}
	s := g.SubRect(1, 2, 3, 2)
	if s.W != 3 || s.H != 2 {
		t.Fatalf("SubRect dims %dx%d", s.W, s.H)
	}
	for y := 0; y < 2; y++ {
		for x := 0; x < 3; x++ {
			if s.At(x, y) != g.At(x+1, y+2) {
				t.Errorf("SubRect(%d,%d) = %d, want %d", x, y, s.At(x, y), g.At(x+1, y+2))
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds SubRect should panic")
		}
	}()
	g.SubRect(3, 3, 4, 4)
}

func TestConversions(t *testing.T) {
	g := NewGray16(3, 2)
	for i := range g.Pix {
		g.Pix[i] = uint16(i * 100)
	}
	fs := make([]float64, 6)
	if err := g.ToFloat(fs); err != nil {
		t.Fatal(err)
	}
	for i, v := range fs {
		if v != float64(i*100) {
			t.Errorf("float[%d] = %v", i, v)
		}
	}
	if err := g.ToFloat(make([]float64, 7)); err == nil {
		t.Error("size mismatch should fail")
	}
}

// TestToFloatFrame: a frame of the image's own size is ToFloat; a larger
// one keeps the image in its corner and joins the opposite edges across
// the margin in even steps, pad rows included.
func TestToFloatFrame(t *testing.T) {
	g := NewGray16(3, 2)
	copy(g.Pix, []uint16{10, 20, 40, 70, 50, 10})
	same := make([]float64, 6)
	g.ToFloatFrame(same, 3)
	for i, v := range same {
		if v != float64(g.Pix[i]) {
			t.Errorf("own-size frame[%d] = %v, want %d", i, v, g.Pix[i])
		}
	}
	got := make([]float64, 5*4)
	for i := range got {
		got[i] = -1 // stale staging from an earlier tile
	}
	g.ToFloatFrame(got, 5)
	want := []float64{
		10, 20, 40, 30, 20, // 40 → 10 in three steps
		70, 50, 10, 30, 50, // 10 → 70
		50, 40, 20, 30, 40, // a third of the way from row 1 back to row 0
		30, 30, 30, 30, 30,
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("frame[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMeanAndStats(t *testing.T) {
	g := NewGray16(2, 2)
	g.Pix = []uint16{1, 2, 3, 4}
	if m := g.Mean(); m != 2.5 {
		t.Errorf("Mean = %g", m)
	}
	sum, sumSq := g.Stats(0, 0, 2, 2)
	if sum != 10 || sumSq != 30 {
		t.Errorf("Stats = %g, %g", sum, sumSq)
	}
	sum, sumSq = g.Stats(1, 0, 1, 2)
	if sum != 6 || sumSq != 20 {
		t.Errorf("column Stats = %g, %g", sum, sumSq)
	}
	empty := NewGray16(0, 0)
	if empty.Mean() != 0 {
		t.Error("empty image mean should be 0")
	}
}

// naiveNCC is the two-pass textbook version of Fig 3's ccf().
func naiveNCC(a *Gray16, ax, ay int, b *Gray16, bx, by, w, h int) float64 {
	n := float64(w * h)
	var ma, mb float64
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			ma += float64(a.At(ax+c, ay+r))
			mb += float64(b.At(bx+c, by+r))
		}
	}
	ma /= n
	mb /= n
	var num, da, db float64
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			fa := float64(a.At(ax+c, ay+r)) - ma
			fb := float64(b.At(bx+c, by+r)) - mb
			num += fa * fb
			da += fa * fa
			db += fb * fb
		}
	}
	if da <= 0 || db <= 0 {
		return -1
	}
	return num / math.Sqrt(da*db)
}

func TestNCCRegionMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewGray16(16, 12)
	b := NewGray16(16, 12)
	for i := range a.Pix {
		a.Pix[i] = uint16(rng.Intn(65536))
		b.Pix[i] = uint16(rng.Intn(65536))
	}
	cases := []struct{ ax, ay, bx, by, w, h int }{
		{0, 0, 0, 0, 16, 12},
		{4, 3, 1, 2, 8, 6},
		{15, 11, 0, 0, 1, 1},
		{0, 6, 8, 0, 8, 6},
	}
	for _, tc := range cases {
		got := NCCRegion(a, tc.ax, tc.ay, b, tc.bx, tc.by, tc.w, tc.h)
		want := naiveNCC(a, tc.ax, tc.ay, b, tc.bx, tc.by, tc.w, tc.h)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%+v: got %g want %g", tc, got, want)
		}
	}
}

func TestNCCRegionProperties(t *testing.T) {
	// Perfect self-correlation = 1; constant region = -1 (degenerate);
	// anti-correlated = -1.
	g := NewGray16(8, 8)
	rng := rand.New(rand.NewSource(2))
	for i := range g.Pix {
		g.Pix[i] = uint16(rng.Intn(1000))
	}
	if c := NCCRegion(g, 0, 0, g, 0, 0, 8, 8); math.Abs(c-1) > 1e-12 {
		t.Errorf("self NCC = %g, want 1", c)
	}
	flat := NewGray16(8, 8)
	for i := range flat.Pix {
		flat.Pix[i] = 500
	}
	if c := NCCRegion(flat, 0, 0, g, 0, 0, 8, 8); c != -1 {
		t.Errorf("degenerate NCC = %g, want -1", c)
	}
	// Affine anti-correlation: b = 1000 - a.
	inv := NewGray16(8, 8)
	for i := range inv.Pix {
		inv.Pix[i] = 1000 - g.Pix[i]
	}
	if c := NCCRegion(g, 0, 0, inv, 0, 0, 8, 8); math.Abs(c+1) > 1e-9 {
		t.Errorf("anti NCC = %g, want -1", c)
	}
	if c := NCCRegion(g, 0, 0, g, 0, 0, 0, 5); c != -1 {
		t.Errorf("empty region NCC = %g, want -1", c)
	}
}

func TestNCCBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewGray16(6, 6)
		b := NewGray16(6, 6)
		for i := range a.Pix {
			a.Pix[i] = uint16(rng.Intn(65536))
			b.Pix[i] = uint16(rng.Intn(65536))
		}
		c := NCCRegion(a, 0, 0, b, 0, 0, 6, 6)
		return c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGridGeometry(t *testing.T) {
	g := Grid{Rows: 3, Cols: 4, TileW: 10, TileH: 8, OverlapX: 0.2, OverlapY: 0.25}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumTiles() != 12 {
		t.Errorf("NumTiles = %d", g.NumTiles())
	}
	// 2nm - n - m with n=3, m=4: 24-7 = 17.
	if g.NumPairs() != 17 {
		t.Errorf("NumPairs = %d, want 17", g.NumPairs())
	}
	if got := len(g.Pairs()); got != 17 {
		t.Errorf("len(Pairs()) = %d, want 17", got)
	}
	for i := 0; i < g.NumTiles(); i++ {
		if g.Index(g.CoordOf(i)) != i {
			t.Errorf("Index/CoordOf roundtrip failed at %d", i)
		}
	}
	if g.In(Coord{3, 0}) || g.In(Coord{0, 4}) || g.In(Coord{-1, 0}) {
		t.Error("In accepts out-of-range coords")
	}
	if !g.In(Coord{2, 3}) {
		t.Error("In rejects valid coord")
	}
}

func TestGridValidateErrors(t *testing.T) {
	bad := []Grid{
		{Rows: 0, Cols: 4, TileW: 8, TileH: 8},
		{Rows: 2, Cols: 2, TileW: 0, TileH: 8},
		{Rows: 2, Cols: 2, TileW: 8, TileH: 8, OverlapX: 1.0},
		{Rows: 2, Cols: 2, TileW: 8, TileH: 8, OverlapY: -0.1},
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestPairNeighbor(t *testing.T) {
	p := Pair{Coord: Coord{2, 3}, Dir: West}
	if n := p.Neighbor(); n != (Coord{2, 2}) {
		t.Errorf("west neighbor = %v", n)
	}
	p = Pair{Coord: Coord{2, 3}, Dir: North}
	if n := p.Neighbor(); n != (Coord{1, 3}) {
		t.Errorf("north neighbor = %v", n)
	}
}

func TestPairsOf(t *testing.T) {
	g := Grid{Rows: 3, Cols: 3, TileW: 4, TileH: 4}
	// Corner (0,0): only east tile's west pair and south tile's north pair.
	ps := g.PairsOf(Coord{0, 0})
	if len(ps) != 2 {
		t.Fatalf("corner has %d pairs, want 2", len(ps))
	}
	// Center (1,1): all four.
	ps = g.PairsOf(Coord{1, 1})
	if len(ps) != 4 {
		t.Fatalf("center has %d pairs, want 4", len(ps))
	}
	// Each pair listed must involve the tile.
	for _, p := range ps {
		if p.Coord != (Coord{1, 1}) && p.Neighbor() != (Coord{1, 1}) {
			t.Errorf("pair %+v does not involve (1,1)", p)
		}
	}
	// Sum over all tiles of PairsOf counts each pair exactly twice.
	total := 0
	for i := 0; i < g.NumTiles(); i++ {
		total += len(g.PairsOf(g.CoordOf(i)))
	}
	if total != 2*g.NumPairs() {
		t.Errorf("sum of PairsOf = %d, want %d", total, 2*g.NumPairs())
	}
}

func TestNominalDisplacement(t *testing.T) {
	g := Grid{Rows: 2, Cols: 2, TileW: 100, TileH: 80, OverlapX: 0.1, OverlapY: 0.25}
	w := g.NominalDisplacement(West)
	if w.X != 90 || w.Y != 0 {
		t.Errorf("west nominal = %+v", w)
	}
	n := g.NominalDisplacement(North)
	if n.X != 0 || n.Y != 60 {
		t.Errorf("north nominal = %+v", n)
	}
}
