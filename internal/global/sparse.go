package global

import (
	"fmt"

	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tile"
)

// This file holds the sparse representation behind SolveLeastSquares:
// the edge list of the phase-2 least-squares system and a CSR view of
// its graph Laplacian. The structure is built ONCE per solve — IRLS
// rounds only rewrite the per-edge weights in place — which replaces the
// seed implementation's per-round adjacency rebuild (an O(edges)
// allocation storm repeated every round) and gives the PCG engine the
// contiguous rows its SpMV wants.
//
// Every CSR row stores its entries in the same order the seed's
// adjacency lists did (edge-index order, `to` row before `from` row per
// edge), so the Gauss-Seidel sweep the tests keep as PCG's oracle
// (solver_equiv_test.go) accumulates them exactly as the seed solver
// did.

// lsEdge is one constraint of the least-squares system: position of
// tile `to` minus position of tile `from` should equal (dx, dy), with
// confidence weight w.
type lsEdge struct {
	from, to int
	dx, dy   int
	w        float64
}

// lsSystem is the built least-squares system: the edge list, the current
// IRLS weights, and the CSR Laplacian structure over them.
type lsSystem struct {
	n     int
	edges []lsEdge
	// robustW is the IRLS working weight per edge; reweight rewrites it
	// in place from the current positions each round.
	robustW []float64

	// CSR over the graph Laplacian: row i lists every edge incident to
	// tile i. colInd is the neighbor tile, edgeRef the edge index (for
	// the weight lookup), and ex/ey the displacement d(col→row) — the
	// value the row tile should sit at relative to the column tile.
	rowPtr  []int32
	colInd  []int32
	edgeRef []int32
	ex, ey  []float64
}

// newLSSystem builds the CSR structure from the finished edge list.
func newLSSystem(n int, edges []lsEdge) *lsSystem {
	s := &lsSystem{n: n, edges: edges}
	s.robustW = make([]float64, len(edges))
	for i, e := range edges {
		s.robustW[i] = e.w
	}
	nnz := 2 * len(edges)
	s.rowPtr = make([]int32, n+1)
	s.colInd = make([]int32, nnz)
	s.edgeRef = make([]int32, nnz)
	s.ex = make([]float64, nnz)
	s.ey = make([]float64, nnz)
	for _, e := range edges {
		s.rowPtr[e.to+1]++
		s.rowPtr[e.from+1]++
	}
	for i := 0; i < n; i++ {
		s.rowPtr[i+1] += s.rowPtr[i]
	}
	next := make([]int32, n)
	copy(next, s.rowPtr[:n])
	for i, e := range edges {
		// Row `to` sees the edge as d(from→to) = +(dx, dy)…
		k := next[e.to]
		next[e.to]++
		s.colInd[k] = int32(e.from)
		s.edgeRef[k] = int32(i)
		s.ex[k] = float64(e.dx)
		s.ey[k] = float64(e.dy)
		// …row `from` as the reverse.
		k = next[e.from]
		next[e.from]++
		s.colInd[k] = int32(e.to)
		s.edgeRef[k] = int32(i)
		s.ex[k] = -float64(e.dx)
		s.ey[k] = -float64(e.dy)
	}
	return s
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

// normalRange fills the normal-equation diagonal and right-hand sides
// for rows [lo, hi): diag[i] = Σ w, bx[i] = Σ w·dx(col→i), by likewise.
//
//stitchlint:hotpath
func (s *lsSystem) normalRange(diag, bx, by []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var sw, sx, sy float64
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			w := s.robustW[s.edgeRef[k]]
			sw += w
			sx += w * s.ex[k]
			sy += w * s.ey[k]
		}
		diag[i] = sw
		bx[i] = sx
		by[i] = sy
	}
}

// spmvRange computes rows [lo, hi) of the pinned-Laplacian product:
// dst[i] = diag[i]·x[i] − Σ_j w_ij·x[j]. Row 0 is the pinned tile — the
// solve works in the subspace x[0] = 0 and the caller forces dst[0] = 0.
//
//stitchlint:hotpath
func (s *lsSystem) spmvRange(dst, x, diag []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		acc := diag[i] * x[i]
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			acc -= s.robustW[s.edgeRef[k]] * x[s.colInd[k]]
		}
		dst[i] = acc
	}
}

// residualMax returns the largest absolute entry of b − L·p over both
// axes (rows 1..n-1) — the final-convergence figure the obs gauge
// reports. diag/bx/by must hold the current round's normal equations.
func (s *lsSystem) residualMax(px, py, diag, bx, by []float64) float64 {
	var worst float64
	for i := 1; i < s.n; i++ {
		ax := diag[i] * px[i]
		ay := diag[i] * py[i]
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			w := s.robustW[s.edgeRef[k]]
			ax -= w * px[s.colInd[k]]
			ay -= w * py[s.colInd[k]]
		}
		if d := bx[i] - ax; d > worst {
			worst = d
		} else if -d > worst {
			worst = -d
		}
		if d := by[i] - ay; d > worst {
			worst = d
		} else if -d > worst {
			worst = -d
		}
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
