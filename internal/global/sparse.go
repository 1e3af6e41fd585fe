package global

import (
	"fmt"
	"math"

	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tile"
)

// This file holds the sparse representation behind SolveLeastSquares:
// the edge list of the phase-2 least-squares system and its pinned graph
// Laplacian. Every edge joins two grid neighbours (a measured pair, its
// stage-model prior, or a nominal reconnection), so the Laplacian is a
// five-point stencil on the plate grid: one weight per West pair and one
// per North pair, the sum of the IRLS weights of that pair's edges. The
// edge list is built ONCE per solve; each IRLS round rewrites the edge
// weights in place and reassembles the stencil and the normal equations
// from them, and the SpMV streams the two weight arrays with no index
// array at all.

// lsEdge is one constraint of the least-squares system: position of
// tile `to` minus position of tile `from` should equal (dx, dy), with
// confidence weight w.
type lsEdge struct {
	from, to int
	dx, dy   int
	w        float64
}

// lsSystem is the built least-squares system: the edge list, the current
// IRLS weights, and the stencil they assemble into.
type lsSystem struct {
	n, cols int
	edges   []lsEdge
	// robustW is the IRLS working weight per edge; reweight rewrites it
	// in place from the current positions each round.
	robustW []float64

	// The Laplacian's off-diagonal as a five-point stencil: wW[i] joins
	// tile i to its West neighbour i−1, wN[i] to its North neighbour
	// i−cols. Slots with no such neighbour (column 0, row 0) stay 0.
	wW, wN []float64
}

// newLSSystem checks that every edge joins a West or North grid pair of
// the rows×cols plate and allocates the stencil over them.
func newLSSystem(rows, cols int, edges []lsEdge) (*lsSystem, error) {
	n := rows * cols
	for i, e := range edges {
		lo, hi := min(e.from, e.to), max(e.from, e.to)
		if lo < 0 || hi >= n || (hi-lo != cols && (hi-lo != 1 || hi%cols == 0)) {
			return nil, fmt.Errorf("global: edge %d joins tiles %d and %d, not grid neighbours on a %dx%d plate",
				i, e.from, e.to, rows, cols)
		}
	}
	s := &lsSystem{n: n, cols: cols, edges: edges,
		robustW: make([]float64, len(edges)),
		wW:      make([]float64, n),
		wN:      make([]float64, n),
	}
	s.resetWeights()
	return s, nil
}

// resetWeights restores the base (pre-IRLS) weights.
func (s *lsSystem) resetWeights() {
	for i, e := range s.edges {
		s.robustW[i] = e.w
	}
}

// reweightRange applies the Cauchy reweighting w ← w/(1+(r/c)²) to edges
// [lo, hi) from the current positions. c2 is the squared residual scale.
// The solve fans it out over the worker budget.
//
//stitchlint:hotpath
func (s *lsSystem) reweightRange(px, py []float64, c2 float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		e := &s.edges[i]
		rx := px[e.to] - px[e.from] - float64(e.dx)
		ry := py[e.to] - py[e.from] - float64(e.dy)
		s.robustW[i] = e.w / (1 + (rx*rx+ry*ry)/c2)
	}
}

// assemble rebuilds the stencil and the normal equations from the
// current IRLS weights: diag[i] = Σ w, bx[i] = Σ w·dx(neighbour→i), by
// likewise. It is one serial scatter over the edges in index order, the
// order in which the seed's adjacency lists summed each row, so the
// normal equations are bit-identical to the seed's.
//
//stitchlint:hotpath
func (s *lsSystem) assemble(diag, bx, by []float64) {
	clear(s.wW)
	clear(s.wN)
	clear(diag)
	clear(bx)
	clear(by)
	for i, e := range s.edges {
		w := s.robustW[i]
		dx, dy := w*float64(e.dx), w*float64(e.dy)
		diag[e.to] += w
		bx[e.to] += dx
		by[e.to] += dy
		diag[e.from] += w
		bx[e.from] -= dx
		by[e.from] -= dy
		if hi := max(e.from, e.to); hi-min(e.from, e.to) == s.cols {
			s.wN[hi] += w
		} else {
			s.wW[hi] += w
		}
	}
}

// spmvRange computes rows [lo, hi) of the pinned-Laplacian product:
// dst[i] = diag[i]·x[i] − Σ_j w_ij·x[j] over i's four grid neighbours.
// Row 0 is the pinned tile — the solve works in the subspace x[0] = 0
// and the caller forces dst[0] = 0.
//
//stitchlint:hotpath
func (s *lsSystem) spmvRange(dst, x, diag []float64, lo, hi int) {
	cols, wW, wN := s.cols, s.wW, s.wN
	// Rows with a North and a South neighbour index every array in
	// range; the plate's first and last rows take the guarded stencilRow.
	mid0 := min(max(lo, cols), hi)
	mid1 := max(min(hi, s.n-cols), mid0)
	for i := lo; i < mid0; i++ {
		dst[i] = s.stencilRow(x, diag, i)
	}
	if mid0 < mid1 {
		// Row i's neighbours are fixed offsets from it, so each operand
		// streams as its own slice of the interior's length: the loop
		// indexes every one with the same proven-in-range k.
		out := dst[mid0:mid1]
		m := len(out)
		d := diag[mid0:mid1][:m]
		xc, xw, xe := x[mid0:mid1][:m], x[mid0-1 : mid1-1][:m], x[mid0+1 : mid1+1][:m]
		xn, xs := x[mid0-cols : mid1-cols][:m], x[mid0+cols : mid1+cols][:m]
		ww, we := wW[mid0:mid1][:m], wW[mid0+1 : mid1+1][:m]
		wn, ws := wN[mid0:mid1][:m], wN[mid0+cols : mid1+cols][:m]
		for k := range out {
			out[k] = d[k]*xc[k] - ww[k]*xw[k] - we[k]*xe[k] - wn[k]*xn[k] - ws[k]*xs[k]
		}
	}
	for i := mid1; i < hi; i++ {
		dst[i] = s.stencilRow(x, diag, i)
	}
}

// stencilRow is row i of the pinned-Laplacian product, for any row.
func (s *lsSystem) stencilRow(x, diag []float64, i int) float64 {
	acc := diag[i] * x[i]
	if i > 0 {
		acc -= s.wW[i] * x[i-1]
	}
	if i+1 < s.n {
		acc -= s.wW[i+1] * x[i+1]
	}
	if i >= s.cols {
		acc -= s.wN[i] * x[i-s.cols]
	}
	if i+s.cols < s.n {
		acc -= s.wN[i+s.cols] * x[i+s.cols]
	}
	return acc
}

// residualMax returns the largest absolute entry of b − L·p over both
// axes (rows 1..n-1) — the final-convergence figure the obs gauge
// reports. diag/bx/by and the stencil must hold the current round's
// assembly.
func (s *lsSystem) residualMax(px, py, diag, bx, by []float64) float64 {
	var worst float64
	for i := 1; i < s.n; i++ {
		worst = max(worst, math.Abs(bx[i]-s.stencilRow(px, diag, i)),
			math.Abs(by[i]-s.stencilRow(py, diag, i)))
	}
	return worst
}

// buildLSEdges assembles the least-squares edge list for a phase-1
// result: measured displacements above MinCorr, the weak stage-model
// prior on every pair, and nominal reconnection edges for any components
// the correlation filter disconnected. The append order is the seed
// solver's, which the GS test oracle replays — do not reorder.
func buildLSEdges(res *stitch.Result, opts LSOptions) (edges []lsEdge, dropped int, err error) {
	g := res.Grid
	n := g.NumTiles()
	var westDX, westDY, northDX, northDY []int
	for _, p := range g.Pairs() {
		d, ok := res.PairDisplacement(p)
		if !ok || d.Corr < opts.MinCorr {
			dropped++
			continue
		}
		if p.Dir == tile.West {
			westDX = append(westDX, d.X)
			westDY = append(westDY, d.Y)
		} else {
			northDX = append(northDX, d.X)
			northDY = append(northDY, d.Y)
		}
		w := maxFloat(d.Corr, 1e-3)
		if opts.Unweighted {
			w = 1
		}
		edges = append(edges, lsEdge{
			from: g.Index(p.Neighbor()),
			to:   g.Index(p.Coord),
			dx:   d.X, dy: d.Y,
			w: w,
		})
	}
	// Stage-model prior: every pair also gets a weak edge at the median
	// per-direction displacement (the mechanical stage is consistent).
	// Good measurements (w ≈ 0.9) dominate it; pairs whose measurement
	// was dropped or gets IRLS-suppressed fall back to the stage model —
	// the least-squares analogue of Solve's outlier repair.
	const priorW = 0.02
	medWX, medWY := median(westDX), median(westDY)
	medNX, medNY := median(northDX), median(northDY)
	for _, p := range g.Pairs() {
		dx, dy := medWX, medWY
		if p.Dir == tile.North {
			dx, dy = medNX, medNY
		}
		edges = append(edges, lsEdge{
			from: g.Index(p.Neighbor()),
			to:   g.Index(p.Coord),
			dx:   dx, dy: dy, w: priorW,
		})
	}

	// Connectivity check with nominal-edge reconnection, mirroring
	// Solve: an unconstrained tile would make the system singular.
	dsu := newDSU(n)
	for _, e := range edges {
		dsu.union(e.from, e.to)
	}
	nomW := g.NominalDisplacement(tile.West)
	nomN := g.NominalDisplacement(tile.North)
	for _, p := range g.Pairs() {
		bi, ai := g.Index(p.Coord), g.Index(p.Neighbor())
		if !dsu.union(ai, bi) {
			continue
		}
		nom := nomW
		if p.Dir == tile.North {
			nom = nomN
		}
		// Nominal edges carry a small weight: enough to anchor the
		// component, not enough to fight measured edges.
		edges = append(edges, lsEdge{from: ai, to: bi, dx: nom.X, dy: nom.Y, w: 1e-3})
	}
	root := dsu.find(0)
	for i := 1; i < n; i++ {
		if dsu.find(i) != root {
			return nil, 0, fmt.Errorf("global: tile %d unreachable even after nominal reconnection", i)
		}
	}
	return edges, dropped, nil
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
