package stitch

import (
	"fmt"
	"math"
	"strings"

	"hybridstitch/internal/tile"
)

// OpCensus reproduces the paper's Table I: per-operation counts,
// asymptotic cost, and operand sizes for an n×m grid of h×w tiles.
type OpCensus struct {
	Rows []OpRow
	Grid tile.Grid
}

// OpRow is one line of Table I.
type OpRow struct {
	Operation   string
	Count       int64
	CostPerOp   float64 // in abstract "element ops"
	OperandSize int64   // bytes
}

// Census computes Table I for a grid.
func Census(g tile.Grid) OpCensus {
	n, m := int64(g.Rows), int64(g.Cols)
	h, w := int64(g.TileH), int64(g.TileW)
	hw := float64(h * w)
	pairs := 2*n*m - n - m
	return OpCensus{
		Grid: g,
		Rows: []OpRow{
			{"Read", n * m, hw, 2 * h * w},
			{"FFT-2D", n * m, hw * math.Log(hw), 16 * h * w},
			{"NCC (⊗)", pairs, hw, 16 * h * w},
			{"FFT-2D⁻¹", pairs, hw * math.Log(hw), 16 * h * w},
			{"max-reduce", pairs, hw, 16 * h * w},
			{"CCF1..4", pairs, hw, 4 * h * w},
		},
	}
}

// TotalForwardAndInverseFFTs returns 3nm-n-m, the figure the paper quotes
// for the number of Fourier transforms in a run.
func (c OpCensus) TotalForwardAndInverseFFTs() int64 {
	n, m := int64(c.Grid.Rows), int64(c.Grid.Cols)
	return 3*n*m - n - m
}

// TransformWorkingSetBytes returns the memory needed to hold every
// forward transform at once as the paper computes them, full complex
// spectra of 16·w·h bytes per tile — the number it contrasts with RAM
// and GPU capacity (53.5 GB for the 42×59 grid). The half spectra this
// package transforms into need roughly half.
func (c OpCensus) TransformWorkingSetBytes() int64 {
	return int64(c.Grid.NumTiles()) * int64(c.Grid.TileW) * int64(c.Grid.TileH) * 16
}

// String renders the census as an aligned text table.
func (c OpCensus) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table I — operation counts for %dx%d grid of %dx%d tiles\n",
		c.Grid.Rows, c.Grid.Cols, c.Grid.TileW, c.Grid.TileH)
	fmt.Fprintf(&sb, "%-12s %12s %16s %14s\n", "Operation", "Count", "Cost/op (elems)", "Operand (B)")
	for _, r := range c.Rows {
		fmt.Fprintf(&sb, "%-12s %12d %16.3g %14d\n", r.Operation, r.Count, r.CostPerOp, r.OperandSize)
	}
	fmt.Fprintf(&sb, "total FFTs (fwd+inv): %d\n", c.TotalForwardAndInverseFFTs())
	fmt.Fprintf(&sb, "all-transforms working set: %.1f GB\n", float64(c.TransformWorkingSetBytes())/1e9)
	return sb.String()
}
