package compose

import (
	"math/rand"
	"testing"

	"hybridstitch/internal/global"
	"hybridstitch/internal/tile"
)

// tileSource serves fixed tiles in grid index order.
type tileSource struct {
	grid  tile.Grid
	tiles []*tile.Gray16
}

func (s *tileSource) Grid() tile.Grid { return s.grid }
func (s *tileSource) ReadTile(c tile.Coord) (*tile.Gray16, error) {
	return s.tiles[s.grid.Index(c)], nil
}

// jitteredPlate builds a rows×cols grid of random tiles placed ~20 %
// apart with up to ±jitter pixels of noise per tile, shifted so the
// placement starts at 0.
func jitteredPlate(seed int64, rows, cols, jitter int) (*global.Placement, *tileSource) {
	rng := rand.New(rand.NewSource(seed))
	g := tile.Grid{Rows: rows, Cols: cols, TileW: 8 + rng.Intn(17), TileH: 8 + rng.Intn(17), OverlapX: 0.2, OverlapY: 0.2}
	src := &tileSource{grid: g}
	pl := &global.Placement{Grid: g}
	minX, minY := 0, 0
	for i := 0; i < g.NumTiles(); i++ {
		c := g.CoordOf(i)
		t := tile.NewGray16(g.TileW, g.TileH)
		for k := range t.Pix {
			t.Pix[k] = uint16(rng.Intn(65536))
		}
		src.tiles = append(src.tiles, t)
		x := c.Col*g.TileW*4/5 + rng.Intn(2*jitter+1) - jitter
		y := c.Row*g.TileH*4/5 + rng.Intn(2*jitter+1) - jitter
		pl.X, pl.Y = append(pl.X, x), append(pl.Y, y)
		minX, minY = min(minX, x), min(minY, y)
	}
	for i := range pl.X {
		pl.X[i] -= minX
		pl.Y[i] -= minY
	}
	return pl, src
}

// FuzzBandEngine holds the engine to the oracles: a level-L region of
// any band height equals the whole-plate blend reduced L times by
// Downsample2x and cropped, with 0 outside the level.
func FuzzBandEngine(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(0), uint8(5), int16(0), int16(0), uint8(200), uint8(200), uint8(0))
	f.Add(int64(2), uint8(3), uint8(4), uint8(1), uint8(7), int16(3), int16(5), uint8(21), uint8(13), uint8(1))
	f.Add(int64(3), uint8(2), uint8(3), uint8(2), uint8(1), int16(-4), int16(9), uint8(30), uint8(40), uint8(2))
	f.Add(int64(4), uint8(1), uint8(1), uint8(2), uint8(64), int16(1), int16(1), uint8(9), uint8(9), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, blend, bandRows uint8, ox, oy int16, w, h, level uint8) {
		r, c := 1+int(rows)%3, 1+int(cols)%4
		b := Blend(blend % 3)
		lv := int(level % 4)
		pl, src := jitteredPlate(seed, r, c, 3)
		want, err := composeOracle(pl, src, b)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < lv; l++ {
			want = Downsample2x(want)
		}
		x0, y0 := int(ox)%64, int(oy)%64
		rw, rh := 1+int(w)%96, 1+int(h)%96
		opts := ShardedOpts{Blend: b, BandRows: 1 + int(bandRows)%40}
		got, err := render(pl, src, x0, y0, rw, rh, lv, opts, &laneRunner{})
		if err != nil {
			t.Fatal(err)
		}
		if got.W != rw || got.H != rh {
			t.Fatalf("region is %dx%d, want %dx%d", got.W, got.H, rw, rh)
		}
		for j := 0; j < rh; j++ {
			for i := 0; i < rw; i++ {
				x, y := x0+i, y0+j
				px := uint16(0)
				if x >= 0 && y >= 0 && x < want.W && y < want.H {
					px = want.At(x, y)
				}
				if got.At(i, j) != px {
					t.Fatalf("%v level %d band %d region (%d,%d)+%dx%d: pixel (%d,%d) = %d, oracle = %d",
						b, lv, opts.BandRows, x0, y0, rw, rh, i, j, got.At(i, j), px)
				}
			}
		}
	})
}
