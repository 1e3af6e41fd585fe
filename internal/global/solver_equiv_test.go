package global

import (
	"math"
	"math/rand"
	"testing"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tile"
)

// noisyResult fabricates a phase-1 result directly (no images): ground
// truth near the nominal stage positions with per-tile jitter, per-pair
// measurement noise, a sprinkle of dropped pairs, sub-MinCorr degraded
// pairs, and confidently-wrong outliers — the full menu the IRLS solve
// has to survive.
func noisyResult(rng *rand.Rand, rows, cols int) (*stitch.Result, []int, []int) {
	g := tile.Grid{Rows: rows, Cols: cols, TileW: 64, TileH: 48, OverlapX: 0.12, OverlapY: 0.12}
	n := g.NumTiles()
	nomW := g.NominalDisplacement(tile.West)
	nomN := g.NominalDisplacement(tile.North)
	tx := make([]int, n)
	ty := make([]int, n)
	for i := 0; i < n; i++ {
		c := g.CoordOf(i)
		tx[i] = c.Col*nomW.X + rng.Intn(5) - 2
		ty[i] = c.Row*nomN.Y + rng.Intn(5) - 2
	}
	res := &stitch.Result{Grid: g,
		West:  make([]tile.Displacement, n),
		North: make([]tile.Displacement, n)}
	for i := range res.West {
		res.West[i].Corr = math.NaN()
		res.North[i].Corr = math.NaN()
	}
	for _, p := range g.Pairs() {
		to := g.Index(p.Coord)
		from := g.Index(p.Neighbor())
		d := tile.Displacement{X: tx[to] - tx[from], Y: ty[to] - ty[from],
			Corr: 0.6 + 0.35*rng.Float64()}
		switch r := rng.Float64(); {
		case r < 0.08: // pair never measured
			continue
		case r < 0.13: // phase correlation locked onto the wrong peak
			d.X += 40 + rng.Intn(30)
			d.Y -= 25
			d.Corr = 0.97
		case r < 0.25: // featureless overlap: noisy and below MinCorr
			d.X += rng.Intn(9) - 4
			d.Y += rng.Intn(9) - 4
			d.Corr = 0.1 + 0.15*rng.Float64()
		default:
			d.X += rng.Intn(3) - 1
			d.Y += rng.Intn(3) - 1
		}
		if p.Dir == tile.West {
			res.West[to] = d
		} else {
			res.North[to] = d
		}
	}
	return res, tx, ty
}

// appendRow returns a copy of res grown by one tile row: every existing
// pair measurement is carried over verbatim (row-major indexing makes
// old indices coincide), and the appended row gets clean well-correlated
// pairs near the nominal displacements. This is the streaming-ingest
// shape the Resolver exists for — re-generating a taller plate from the
// same RNG seed would redraw every measurement and leave nothing for a
// warm start to reuse.
func appendRow(res *stitch.Result, rng *rand.Rand) *stitch.Result {
	g := res.Grid
	ng := g
	ng.Rows++
	n := ng.NumTiles()
	out := &stitch.Result{Grid: ng,
		West:  make([]tile.Displacement, n),
		North: make([]tile.Displacement, n)}
	for i := range out.West {
		out.West[i].Corr = math.NaN()
		out.North[i].Corr = math.NaN()
	}
	copy(out.West, res.West)
	copy(out.North, res.North)
	nomW := ng.NominalDisplacement(tile.West)
	nomN := ng.NominalDisplacement(tile.North)
	for c := 0; c < ng.Cols; c++ {
		i := (ng.Rows-1)*ng.Cols + c
		if c > 0 {
			out.West[i] = tile.Displacement{X: nomW.X + rng.Intn(3) - 1,
				Y: nomW.Y + rng.Intn(3) - 1, Corr: 0.85}
		}
		out.North[i] = tile.Displacement{X: nomN.X + rng.Intn(3) - 1,
			Y: nomN.Y + rng.Intn(3) - 1, Corr: 0.85}
	}
	return out
}

// maxPlacementDiff returns the largest per-tile |Δx|+|Δy| between two
// placements of the same grid.
func maxPlacementDiff(a, b *Placement) int {
	worst := 0
	for i := range a.X {
		d := abs(a.X[i]-b.X[i]) + abs(a.Y[i]-b.Y[i])
		if d > worst {
			worst = d
		}
	}
	return worst
}

// csrLaplacian is the seed's adjacency of the least-squares system in
// CSR form, kept as the oracles' structure: row i lists every edge
// incident to tile i in edge-index order (`to` row before `from` row per
// edge), exactly as the seed's adjacency lists did. colInd is the
// neighbour tile, edgeRef the edge index (for the weight lookup), and
// ex/ey the displacement d(col→row).
type csrLaplacian struct {
	n       int
	rowPtr  []int32
	colInd  []int32
	edgeRef []int32
	ex, ey  []float64
}

func newCSRLaplacian(n int, edges []lsEdge) *csrLaplacian {
	nnz := 2 * len(edges)
	c := &csrLaplacian{n: n,
		rowPtr:  make([]int32, n+1),
		colInd:  make([]int32, nnz),
		edgeRef: make([]int32, nnz),
		ex:      make([]float64, nnz),
		ey:      make([]float64, nnz),
	}
	for _, e := range edges {
		c.rowPtr[e.to+1]++
		c.rowPtr[e.from+1]++
	}
	for i := 0; i < n; i++ {
		c.rowPtr[i+1] += c.rowPtr[i]
	}
	next := append([]int32(nil), c.rowPtr[:n]...)
	for i, e := range edges {
		for _, side := range [2]struct{ row, col, sign int }{{e.to, e.from, 1}, {e.from, e.to, -1}} {
			k := next[side.row]
			next[side.row]++
			c.colInd[k] = int32(side.col)
			c.edgeRef[k] = int32(i)
			c.ex[k] = float64(side.sign * e.dx)
			c.ey[k] = float64(side.sign * e.dy)
		}
	}
	return c
}

// gsSweep runs one Gauss-Seidel sweep (tile 0 pinned) with edge weights
// w and returns the largest per-tile position update. The accumulation
// order and expressions are the seed solver's, so gsSolve reproduces it
// bit for bit.
func (c *csrLaplacian) gsSweep(w, px, py []float64) float64 {
	var maxDelta float64
	for i := 1; i < c.n; i++ {
		var sw, sx, sy float64
		for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			wk := w[c.edgeRef[k]]
			j := c.colInd[k]
			sw += wk
			sx += wk * (px[j] + c.ex[k])
			sy += wk * (py[j] + c.ey[k])
		}
		if sw == 0 {
			continue
		}
		nx, ny := sx/sw, sy/sw
		if d := nx - px[i]; d > maxDelta {
			maxDelta = d
		} else if -d > maxDelta {
			maxDelta = -d
		}
		if d := ny - py[i]; d > maxDelta {
			maxDelta = d
		} else if -d > maxDelta {
			maxDelta = -d
		}
		px[i], py[i] = nx, ny
	}
	return maxDelta
}

// choleskyInPlace is the dense Cholesky factor bandCholesky is checked
// against: it factors the SPD matrix a (n×n, row-major) into its
// lower-triangular factor, stored in the lower triangle, clamping
// non-positive pivots the same way.
func choleskyInPlace(a []float64, n int) {
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if d < 1e-12 {
			d = 1e-12
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			row := a[i*n:]
			pj := a[j*n:]
			for k := 0; k < j; k++ {
				s -= row[k] * pj[k]
			}
			a[i*n+j] = s * inv
		}
	}
}

// choleskySolve solves L·Lᵀ·x = b in place given the factor from
// choleskyInPlace.
func choleskySolve(l []float64, n int, b []float64) {
	for i := 0; i < n; i++ {
		s := b[i]
		row := l[i*n:]
		for k := 0; k < i; k++ {
			s -= row[k] * b[k]
		}
		b[i] = s / row[i]
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * b[k]
		}
		b[i] = s / l[i*n+i]
	}
}

// gsSolve is the seed's serial Gauss-Seidel IRLS solve, kept as the
// oracle production PCG is compared against: the same edges, seed
// positions and Cauchy reweighting as solveLS, with sweeps in place of
// CG.
//
// Its stop is known to be wrong, and only a tight Tol makes it an
// oracle: the per-sweep max-movement test triggers while sweeps are
// stalled — moving slowly but still far from the solution — on
// weakly-connected, prior-only regions. At the default Tol it sat 17 px
// off a tight-tolerance reference at 250×235 tiles, and 0–3 px (twice
// 44–49 px) off on noisyResult plates below 1024 tiles. The equivalence
// tests therefore run both solvers at Tol = 1e-7, where both converge.
func gsSolve(res *stitch.Result, opts LSOptions) (*Placement, error) {
	g := res.Grid
	n := g.NumTiles()
	opts = opts.withDefaults(n)
	edges, dropped, err := buildLSEdges(res, opts)
	if err != nil {
		return nil, err
	}
	sys, err := newLSSystem(g.Rows, g.Cols, edges)
	if err != nil {
		return nil, err
	}
	csr := newCSRLaplacian(n, edges)
	px, py := seedPositions(res, opts.MinCorr)
	c2 := opts.ResidualScale * opts.ResidualScale
	for round := 0; round < opts.Rounds; round++ {
		if opts.Rounds > 1 {
			sys.reweightRange(px, py, c2, 0, len(sys.edges))
		}
		for it := 0; it < opts.MaxIter; it++ {
			if csr.gsSweep(sys.robustW, px, py) < opts.Tol {
				break
			}
		}
	}
	pl := &Placement{Grid: g, X: make([]int, n), Y: make([]int, n), Dropped: dropped}
	for i := 0; i < n; i++ {
		pl.X[i] = int(math.Round(px[i]))
		pl.Y[i] = int(math.Round(py[i]))
	}
	pl.normalize()
	return pl, nil
}

// TestSolverEquivalenceRandomized is the cross-engine property test: on
// randomized noisy grids, the Gauss-Seidel oracle and production PCG
// must land every tile within a pixel of each other, weighted and
// unweighted, both at a tight tolerance (see gsSolve).
func TestSolverEquivalenceRandomized(t *testing.T) {
	cases := []struct{ rows, cols int }{{4, 5}, {9, 7}, {16, 16}}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed * 1000))
			res, _, _ := noisyResult(rng, tc.rows, tc.cols)
			for _, unweighted := range []bool{false, true} {
				opts := LSOptions{Unweighted: unweighted, Tol: 1e-7, MaxIter: 200000}
				gs, err := gsSolve(res, opts)
				if err != nil {
					t.Fatalf("%dx%d seed %d gs: %v", tc.rows, tc.cols, seed, err)
				}
				pcg, err := SolveLeastSquares(res, opts)
				if err != nil {
					t.Fatalf("%dx%d seed %d pcg: %v", tc.rows, tc.cols, seed, err)
				}
				if d := maxPlacementDiff(gs, pcg); d > 1 {
					t.Errorf("%dx%d seed %d unweighted=%v: gs vs pcg differ by %d px",
						tc.rows, tc.cols, seed, unweighted, d)
				}
			}
		}
	}
}

// TestSolverEquivalenceSparseGraph drops every measured edge in two
// interior rows, leaving only the weak prior edges to hold the plate
// together there — the reconnection-ish regime where the system is at
// its worst-conditioned. Oracle and PCG must still agree.
func TestSolverEquivalenceSparseGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	res, _, _ := noisyResult(rng, 10, 8)
	g := res.Grid
	for i := range res.West {
		if r := g.CoordOf(i).Row; r == 4 || r == 5 {
			res.West[i].Corr = math.NaN()
			res.North[i].Corr = math.NaN()
		}
	}
	opts := LSOptions{Tol: 1e-7, MaxIter: 200000}
	gs, err := gsSolve(res, opts)
	if err != nil {
		t.Fatal(err)
	}
	pcg, err := SolveLeastSquares(res, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxPlacementDiff(gs, pcg); d > 1 {
		t.Errorf("gs vs pcg differ by %d px on sparse graph", d)
	}
}

// TestSolverAutoSelection pins that there is no selection left: a plate
// below 1024 tiles (which once ran Gauss-Seidel) and one above both run
// the CG engine.
func TestSolverAutoSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sz := range []struct{ rows, cols int }{{5, 6}, {33, 32}} {
		res, _, _ := noisyResult(rng, sz.rows, sz.cols)
		rec := obs.New()
		if _, err := SolveLeastSquares(res, LSOptions{Obs: rec}); err != nil {
			t.Fatal(err)
		}
		if cg := rec.CounterValue(obs.CounterLSItersCG); cg == 0 {
			t.Errorf("%dx%d plate: expected CG iterations, got none", sz.rows, sz.cols)
		}
		rec.Close()
	}
}

// TestTwoLevelCoarsensSmallPlates pins the aggregation rule's floor:
// aggregates are at least 2×2 tiles, so on a plate under the coarse
// target the preconditioner is still a two-level method, not a dense
// Cholesky of the whole plate every IRLS round.
func TestTwoLevelCoarsensSmallPlates(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	res, _, _ := noisyResult(rng, 24, 24)
	n := res.Grid.NumTiles()
	edges, _, err := buildLSEdges(res, LSOptions{}.withDefaults(n))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := newLSSystem(24, 24, edges)
	if err != nil {
		t.Fatal(err)
	}
	pre := newTwoLevelPrecond(sys, make([]float64, n), 24, 24)
	if pre.nc > n/4 {
		t.Errorf("24x24 plate: %d coarse nodes, want at most %d", pre.nc, n/4)
	}
}

// TestBandCholeskyMatchesDense checks the banded coarse factor against
// the dense oracle at every plate size this file solves: the Galerkin
// matrix assembled densely in edge order and factored by choleskyInPlace
// must equal the band (and be zero outside it) bit for bit, and so must
// the solves. One plate gets an aggregate whose every edge weighs zero,
// the inert-identity-row case.
func TestBandCholeskyMatchesDense(t *testing.T) {
	sizes := []struct{ rows, cols int }{{4, 5}, {9, 7}, {16, 16}, {10, 8}, {11, 8},
		{5, 6}, {33, 32}, {24, 24}, {31, 33}, {46, 46}, {7, 7}, {9, 9}}
	for _, sz := range sizes {
		for _, inert := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(sz.rows*100 + sz.cols)))
			res, _, _ := noisyResult(rng, sz.rows, sz.cols)
			n := res.Grid.NumTiles()
			opts := LSOptions{}.withDefaults(n)
			edges, _, err := buildLSEdges(res, opts)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := newLSSystem(sz.rows, sz.cols, edges)
			if err != nil {
				t.Fatal(err)
			}
			px, py := seedPositions(res, opts.MinCorr)
			sys.reweightRange(px, py, 4, 0, len(edges))
			pre := newTwoLevelPrecond(sys, make([]float64, n), sz.rows, sz.cols)
			nc, bw := pre.nc, pre.bw
			dead := int32(-1)
			if inert {
				dead = pre.agg[n-1]
				for i, e := range edges {
					if pre.agg[e.from] == dead || pre.agg[e.to] == dead {
						sys.robustW[i] = 0
					}
				}
			}
			pre.refresh()

			// The dense oracle: the same Galerkin matrix, assembled and
			// patched the way the dense solver did it.
			dense := make([]float64, nc*nc)
			for i, e := range edges {
				w := sys.robustW[i]
				ca, cb := int(pre.agg[e.from]), int(pre.agg[e.to])
				switch {
				case e.from == 0:
					dense[cb*nc+cb] += w
				case e.to == 0:
					dense[ca*nc+ca] += w
				case ca == cb:
				default:
					dense[ca*nc+ca] += w
					dense[cb*nc+cb] += w
					dense[ca*nc+cb] -= w
					dense[cb*nc+ca] -= w
				}
			}
			for c := 0; c < nc; c++ {
				if dense[c*nc+c] == 0 {
					for j := 0; j < nc; j++ {
						dense[c*nc+j] = 0
						dense[j*nc+c] = 0
					}
					dense[c*nc+c] = 1
				}
			}
			choleskyInPlace(dense, nc)

			for i := 0; i < nc; i++ {
				for j := 0; j <= i; j++ {
					want := dense[i*nc+j]
					if i-j > bw {
						if want != 0 {
							t.Fatalf("%dx%d: dense factor (%d,%d) = %v outside the band %d", sz.rows, sz.cols, i, j, want, bw)
						}
						continue
					}
					if got := pre.ac[i*(bw+1)+j-i+bw]; got != want {
						t.Fatalf("%dx%d inert=%v: factor (%d,%d) = %v, dense says %v", sz.rows, sz.cols, inert, i, j, got, want)
					}
				}
			}
			if inert && pre.ac[int(dead)*(bw+1)+bw] != 1 {
				t.Fatalf("%dx%d: aggregate %d has no coupling but is not an identity row", sz.rows, sz.cols, dead)
			}
			b := make([]float64, nc)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			want := append([]float64(nil), b...)
			choleskySolve(dense, nc, want)
			bandCholeskySolve(pre.ac, nc, bw, b)
			for i := range b {
				if b[i] != want[i] {
					t.Fatalf("%dx%d inert=%v: solve[%d] = %v, dense says %v", sz.rows, sz.cols, inert, i, b[i], want[i])
				}
			}
		}
	}
}

// TestDefaultTolMatchesTightReference is the property GS's stop lacked:
// at the default Tol, the solve lands every tile exactly where a
// Tol = 1e-9 solve of the same plate does.
func TestDefaultTolMatchesTightReference(t *testing.T) {
	for _, sz := range []struct{ rows, cols int }{{5, 6}, {16, 16}, {31, 33}} {
		for seed := int64(1); seed <= 3; seed++ {
			res, _, _ := noisyResult(rand.New(rand.NewSource(seed)), sz.rows, sz.cols)
			def, err := SolveLeastSquares(res, LSOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := SolveLeastSquares(res, LSOptions{Tol: 1e-9})
			if err != nil {
				t.Fatal(err)
			}
			if d := maxPlacementDiff(def, ref); d != 0 {
				t.Errorf("%dx%d seed %d: default Tol is %d px off the 1e-9 reference",
					sz.rows, sz.cols, seed, d)
			}
		}
	}
}

// TestSolveParallelPoolsAgree runs the engine's parallel SpMV, dot and
// reweight fan-outs: the plate has more than parMinChunk rows, so each
// private pool's helpers take real chunks. Chunk boundaries follow the
// reserved count, so float solutions differ in the low bits between
// pools, but the integer placements must not. `make check` runs this
// under -race at -cpu 1,2,4; two IRLS rounds (one reweight) keep that
// run short.
func TestSolveParallelPoolsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	res, _, _ := noisyResult(rng, 46, 46)
	var want *Placement
	for _, helpers := range []int{0, 1, 3} {
		pl, err := SolveLeastSquares(res, LSOptions{Rounds: 2, Pool: fft.NewWorkerPool(helpers)})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = pl
			continue
		}
		for i := range want.X {
			if pl.X[i] != want.X[i] || pl.Y[i] != want.Y[i] {
				t.Fatalf("%d helpers: tile %d at (%d,%d), serial solve put it at (%d,%d)",
					helpers, i, pl.X[i], pl.Y[i], want.X[i], want.Y[i])
			}
		}
	}
}

// TestLeastSquaresObsGolden is the golden span/counter test for the
// phase-2 instrumentation: one solve.ls span on the phase2 track with
// the grid attr, the effort counters, and the convergence gauge present
// and small.
func TestLeastSquaresObsGolden(t *testing.T) {
	res, _ := syntheticResult(t, 5, 6, 9)
	rec := obs.New()
	defer rec.Close()
	if _, err := SolveLeastSquares(res, LSOptions{Obs: rec}); err != nil {
		t.Fatal(err)
	}
	var found int
	for _, sp := range rec.Spans() {
		if sp.Track != obs.TrackPhase2 || sp.Name != obs.SpanSolveLS {
			continue
		}
		found++
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["grid"] != "5x6" {
			t.Errorf("span grid attr = %q, want 5x6", attrs["grid"])
		}
	}
	if found != 1 {
		t.Fatalf("got %d solve.ls spans, want 1", found)
	}
	if rounds := rec.CounterValue(obs.CounterLSRounds); rounds < 1 || rounds > 5 {
		t.Errorf("rounds counter = %d, want 1..5", rounds)
	}
	if cg := rec.CounterValue(obs.CounterLSItersCG); cg == 0 {
		t.Error("solve recorded no CG iterations")
	}
	last, _ := rec.Gauge(obs.GaugeLSResidualPx).Value()
	if math.IsNaN(last) || last < 0 || last > 1 {
		t.Errorf("final residual gauge = %v, want small non-negative", last)
	}
}

// TestResolverWarmStartAppendRow grows a plate by one row and checks the
// warm re-solve matches a cold solve of the grown plate, while reporting
// (via the iteration counter) less CG effort than the cold solve.
// Unweighted keeps both paths on the identical fixed linear system with
// a unique solution — with IRLS on, a warm re-solve runs a single
// incremental reweight round and the cold solve the full budget, so a
// position comparison would test the loss landscape rather than the
// warm-start plumbing (TestResolverIncrementalRobustness covers that
// side).
func TestResolverWarmStartAppendRow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	resA, _, _ := noisyResult(rng, 10, 8)
	resB := appendRow(resA, rng)

	warmRec := obs.New()
	defer warmRec.Close()
	r := NewResolver(LSOptions{Unweighted: true, Obs: warmRec})
	if _, err := r.Solve(resA); err != nil {
		t.Fatal(err)
	}
	coldIters := warmRec.CounterValue(obs.CounterLSItersCG)
	warm, err := r.Solve(resB)
	if err != nil {
		t.Fatal(err)
	}
	warmIters := warmRec.CounterValue(obs.CounterLSItersCG) - coldIters

	coldRec := obs.New()
	defer coldRec.Close()
	cold, err := SolveLeastSquares(resB, LSOptions{Unweighted: true, Obs: coldRec})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxPlacementDiff(cold, warm); d > 1 {
		t.Errorf("warm re-solve differs from cold by %d px", d)
	}
	if coldB := coldRec.CounterValue(obs.CounterLSItersCG); warmIters >= coldB {
		t.Errorf("warm re-solve took %d CG iterations, cold took %d — warm start not helping", warmIters, coldB)
	}
}

// TestResolverSameGridReuse re-solves the identical plate (Unweighted,
// so the linear system is unchanged between calls): the second solve
// starts at the converged solution and must neither move tiles nor
// spend iterations.
func TestResolverSameGridReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	res, _, _ := noisyResult(rng, 9, 9)
	rec := obs.New()
	defer rec.Close()
	r := NewResolver(LSOptions{Unweighted: true, Obs: rec})
	first, err := r.Solve(res)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := rec.CounterValue(obs.CounterLSItersCG)
	second, err := r.Solve(res)
	if err != nil {
		t.Fatal(err)
	}
	reIters := rec.CounterValue(obs.CounterLSItersCG) - afterFirst
	if d := maxPlacementDiff(first, second); d > 1 {
		t.Errorf("re-solve of identical plate moved tiles by up to %d px", d)
	}
	if reIters > 4 {
		t.Errorf("re-solve of converged plate took %d CG iterations, want ≤4", reIters)
	}
}

// TestResolverIncrementalRobustness exercises the warm re-solve's
// single incremental IRLS round against the full cold IRLS budget: the
// grown plate includes confidently-wrong outlier pairs (some in the
// appended row), and because the warm positions already sit at the
// previous plate's robust fixed point, the one informed reweight must
// suppress them nearly as well as cold's five rounds do. The tolerance
// is 4 px (|Δx|+|Δy|): the incremental solution legitimately trails the
// full-IRLS fixed point by the tail of the remaining round movements,
// ~2 px per axis at this fixture's outlier density.
func TestResolverIncrementalRobustness(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	resA, _, _ := noisyResult(rng, 10, 8)
	resB := appendRow(resA, rng)
	// A confidently-wrong peak in the appended row: the incremental
	// round's informed reweight has exactly one chance to defuse it.
	iOut := (resB.Grid.Rows-1)*resB.Grid.Cols + 3
	resB.West[iOut].X += 40
	resB.West[iOut].Y -= 25
	resB.West[iOut].Corr = 0.97

	r := NewResolver(LSOptions{})
	if _, err := r.Solve(resA); err != nil {
		t.Fatal(err)
	}
	warm, err := r.Solve(resB)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := SolveLeastSquares(resB, LSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxPlacementDiff(cold, warm); d > 4 {
		t.Errorf("incremental warm re-solve differs from full cold IRLS by %d px", d)
	}
}

// TestWarmOptionValidation: a warm placement sized for a different grid
// must be rejected, not silently misused.
func TestWarmOptionValidation(t *testing.T) {
	res, _ := syntheticResult(t, 4, 5, 2)
	bad := &Placement{X: make([]int, 7), Y: make([]int, 7)}
	if _, err := SolveLeastSquares(res, LSOptions{Warm: bad}); err == nil {
		t.Fatal("warm placement with wrong tile count accepted")
	}
}

// TestWarmOptionMatchesCold: LSOptions.Warm with the previous solution
// of the same grid reproduces the cold placement.
func TestWarmOptionMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	res, _, _ := noisyResult(rng, 7, 7)
	cold, err := SolveLeastSquares(res, LSOptions{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveLeastSquares(res, LSOptions{Rounds: 1, Warm: cold})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxPlacementDiff(cold, warm); d > 1 {
		t.Errorf("warm-from-cold differs by %d px", d)
	}
}
