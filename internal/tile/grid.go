package tile

import "fmt"

// Coord addresses a tile within a grid: Row ∈ [0, Rows), Col ∈ [0, Cols).
type Coord struct {
	Row, Col int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.Row, c.Col) }

// Dir identifies a neighbor relationship between adjacent tiles.
type Dir int

const (
	// West relates a tile to its left neighbor (east-west pair).
	West Dir = iota
	// North relates a tile to its upper neighbor (north-south pair).
	North
)

func (d Dir) String() string {
	if d == West {
		return "west"
	}
	return "north"
}

// Pair is an adjacent tile pair: the displacement is computed between
// Coord and its neighbor in direction Dir (the paper computes
// translations-west[I] = pciam(I, I#west) and
// translations-north[I] = pciam(I#north, I)).
type Pair struct {
	Coord Coord
	Dir   Dir
}

// Neighbor returns the coordinate of the pair's other tile.
func (p Pair) Neighbor() Coord {
	if p.Dir == West {
		return Coord{Row: p.Coord.Row, Col: p.Coord.Col - 1}
	}
	return Coord{Row: p.Coord.Row - 1, Col: p.Coord.Col}
}

// Grid describes the tile layout of one plate scan.
type Grid struct {
	Rows, Cols   int
	TileW, TileH int
	// OverlapX and OverlapY are the nominal overlap fractions
	// (microscope presets); the actual per-pair displacement deviates
	// from these by stage jitter, which is what stitching recovers.
	OverlapX, OverlapY float64
}

// Validate checks the grid parameters.
func (g Grid) Validate() error {
	if g.Rows <= 0 || g.Cols <= 0 {
		return fmt.Errorf("tile: grid %dx%d must be positive", g.Rows, g.Cols)
	}
	if g.TileW <= 0 || g.TileH <= 0 {
		return fmt.Errorf("tile: tile size %dx%d must be positive", g.TileW, g.TileH)
	}
	if g.OverlapX < 0 || g.OverlapX >= 1 || g.OverlapY < 0 || g.OverlapY >= 1 {
		return fmt.Errorf("tile: overlap fractions (%g, %g) must be in [0,1)", g.OverlapX, g.OverlapY)
	}
	return nil
}

// NumTiles returns Rows*Cols.
func (g Grid) NumTiles() int { return g.Rows * g.Cols }

// NumPairs returns the number of adjacent pairs, 2nm - n - m: every tile
// except column 0 has a west pair; every tile except row 0 has a north
// pair.
func (g Grid) NumPairs() int { return 2*g.Rows*g.Cols - g.Rows - g.Cols }

// Index linearizes a coordinate (row-major).
func (g Grid) Index(c Coord) int { return c.Row*g.Cols + c.Col }

// CoordOf inverts Index.
func (g Grid) CoordOf(i int) Coord { return Coord{Row: i / g.Cols, Col: i % g.Cols} }

// In reports whether the coordinate lies inside the grid.
func (g Grid) In(c Coord) bool {
	return c.Row >= 0 && c.Row < g.Rows && c.Col >= 0 && c.Col < g.Cols
}

// Pairs returns all adjacent pairs in row-major tile order.
func (g Grid) Pairs() []Pair {
	ps := make([]Pair, 0, g.NumPairs())
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if c > 0 {
				ps = append(ps, Pair{Coord: Coord{r, c}, Dir: West})
			}
			if r > 0 {
				ps = append(ps, Pair{Coord: Coord{r, c}, Dir: North})
			}
		}
	}
	return ps
}

// PairsOf returns the pairs that involve tile c (up to 4: its own west and
// north pairs, plus the west pair of its east neighbor and the north pair
// of its south neighbor). Used for reference counting: a tile's transform
// can be freed when all PairsOf are done.
func (g Grid) PairsOf(c Coord) []Pair {
	var ps []Pair
	if c.Col > 0 {
		ps = append(ps, Pair{Coord: c, Dir: West})
	}
	if c.Row > 0 {
		ps = append(ps, Pair{Coord: c, Dir: North})
	}
	if c.Col+1 < g.Cols {
		ps = append(ps, Pair{Coord: Coord{c.Row, c.Col + 1}, Dir: West})
	}
	if c.Row+1 < g.Rows {
		ps = append(ps, Pair{Coord: Coord{c.Row + 1, c.Col}, Dir: North})
	}
	return ps
}

// Band is one row band of a plate split across independent pipelines
// (one per GPU, or one per CPU socket): it owns every pair whose tile
// lies in rows [Lo, Hi), and it reads rows [Need, Hi). The row above the
// band serves the band's top north pairs, so a boundary row is read and
// transformed by both bands it touches.
type Band struct {
	Lo, Hi int
	Need   int // Lo-1, clamped to 0
}

// SplitRows splits a plate of the given row count into n row bands of
// near-equal height, in row order. n is clamped to [1, rows], so a band
// always has at least one row of its own.
func SplitRows(rows, n int) []Band {
	n = min(max(n, 1), rows)
	bands := make([]Band, n)
	for d := range bands {
		lo := rows * d / n
		bands[d] = Band{Lo: lo, Hi: rows * (d + 1) / n, Need: max(lo-1, 0)}
	}
	return bands
}

// Owns reports whether pair p is the band's to compute.
func (b Band) Owns(p Pair) bool { return p.Coord.Row >= b.Lo && p.Coord.Row < b.Hi }

// Pairs lists the pairs the band owns, in g.Pairs order.
func (b Band) Pairs(g Grid) []Pair {
	var ps []Pair
	for _, p := range g.Pairs() {
		if b.Owns(p) {
			ps = append(ps, p)
		}
	}
	return ps
}

// Grid returns the rows the band reads, [Need, Hi), as a grid of their
// own: its row r is the plate's row r+Need.
func (b Band) Grid(g Grid) Grid {
	g.Rows = b.Hi - b.Need
	return g
}

// Displacement is the result of one pair-wise PCIAM computation: the
// translation (X, Y) of the pair's tile relative to its neighbor, and the
// winning normalized cross-correlation factor in [-1, 1].
type Displacement struct {
	X, Y int
	Corr float64
}

// NominalDisplacement returns the expected translation for a pair given
// only the preset overlap fractions — the starting point the microscope
// aims for and stitching corrects.
func (g Grid) NominalDisplacement(d Dir) Displacement {
	if d == West {
		return Displacement{X: int(float64(g.TileW) * (1 - g.OverlapX)), Y: 0}
	}
	return Displacement{X: 0, Y: int(float64(g.TileH) * (1 - g.OverlapY))}
}
