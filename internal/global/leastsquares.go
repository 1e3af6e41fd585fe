package global

import (
	"fmt"
	"math"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tile"
)

// This file implements the paper's other phase-2 option: instead of
// "selecting a subset of the relative displacements" (the spanning tree
// of Solve), it "uses a global optimization approach to adjust them to a
// path invariant state in the graph" — a correlation-weighted
// least-squares placement. Each axis is solved independently: minimize
//
//	Σ_e  w_e · (p_to − p_from − d_e)²
//
// over tile positions p, with w_e = max(corr_e, ε). The normal equations
// form a graph Laplacian system (tile 0 pinned to remove the translation
// null space) solved at every plate size by the parallel preconditioned
// conjugate-gradient engine in pcg.go. Robustness comes from IRLS
// reweighting (Cauchy loss) around it; the sparse system itself is built
// once and reweighted in place (sparse.go).

// SolverKind names a least-squares engine. There is one, so
// LSOptions.Solver is ignored; the type stays for callers that set it.
type SolverKind string

// SolverPCG is the preconditioned conjugate-gradient engine — the only
// one SolveLeastSquares runs.
const SolverPCG SolverKind = "pcg"

// irlsRoundTolFactor scales LSOptions.Tol into the round-level IRLS
// convergence threshold: a round whose largest total position movement
// stays under factor·Tol (0.01 px at the default Tol) has fixed-pointed
// — reweighting from essentially unchanged positions yields essentially
// unchanged weights.
const irlsRoundTolFactor = 100

// LSOptions tunes SolveLeastSquares.
type LSOptions struct {
	// MinCorr excludes edges below this correlation from the system
	// entirely (they contribute no information).
	MinCorr float64
	// MaxIter bounds the CG iterations per axis and reweighting round;
	// 0 picks 100·√tiles (a cap CG never approaches).
	MaxIter int
	// Tol stops iteration when the largest per-tile position update of a
	// CG iteration falls below it (pixels); 0 picks 1e-4.
	Tol float64
	// Rounds is the number of IRLS reweighting rounds: after each
	// solve, edges are down-weighted by their residual (Cauchy loss),
	// which defuses confidently-wrong displacements — the phase
	// correlation failure mode on featureless overlaps. 0 picks 5;
	// 1 is plain (non-robust) least squares.
	Rounds int
	// ResidualScale is the Cauchy scale c in w ← w/(1+(r/c)²); 0 picks
	// 2 px.
	ResidualScale float64
	// Unweighted ignores per-edge confidence entirely: every surviving
	// measured edge gets weight 1 and no IRLS reweighting runs (Rounds
	// is forced to 1). This is the plain least-squares baseline the
	// accuracy harness differentials the weighted solve against — on
	// adversarial plates it lets one confidently-wrong displacement drag
	// whole rows of tiles. Production callers leave it false.
	Unweighted bool
	// Solver is ignored: every solve runs PCG with the two-level
	// preconditioner.
	Solver SolverKind
	// Warm seeds the solve from a previous placement of the SAME grid
	// instead of the robust spanning tree — the rolling re-solve path.
	// For grids that grew since the previous solve, use Resolver, which
	// maps the old placement onto the new grid.
	Warm *Placement
	// Pool is the worker budget PCG's SpMV/dot/reweight fan-outs draw
	// from; nil means fft.SharedPool(). Phase 2 reserves idle tokens for
	// the solve's duration and releases them on return, so it composes
	// with phase-1 pair-worker reservations instead of oversubscribing.
	Pool *fft.WorkerPool
	// Obs, when non-nil, records a "solve.ls" span on the phase2 track
	// plus the global.ls.* counters (rounds, CG iterations) and the
	// final max-residual gauge.
	Obs *obs.Recorder

	// warmIncremental (set by Resolver for warm re-solves) runs a single
	// IRLS round WITH the reweighting pass: the warm positions already
	// encode the robust fixed point of the previous plate, so one
	// informed reweight+solve is the incremental IRLS step — repeated
	// appends keep converging across Solve calls instead of paying the
	// full round budget per append.
	warmIncremental bool
}

func (o LSOptions) withDefaults(n int) LSOptions {
	if o.Unweighted {
		o.Rounds = 1
	}
	if o.MinCorr == 0 {
		o.MinCorr = 0.3
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100 * int(math.Sqrt(float64(n))+1)
	}
	if o.Tol == 0 {
		o.Tol = 1e-4
	}
	if o.Rounds == 0 {
		o.Rounds = 5
	}
	if o.ResidualScale == 0 {
		o.ResidualScale = 2
	}
	return o
}

// SolveLeastSquares computes absolute positions by global optimization.
// Compared with the spanning tree, it averages the over-constraint
// instead of discarding it: every displacement influences the result in
// proportion to its confidence, which typically halves the RMS position
// error under per-edge noise (see the solver-comparison experiment).
func SolveLeastSquares(res *stitch.Result, opts LSOptions) (*Placement, error) {
	var warmX, warmY []float64
	if opts.Warm != nil {
		n := res.Grid.NumTiles()
		if len(opts.Warm.X) != n || len(opts.Warm.Y) != n {
			return nil, fmt.Errorf("global: warm placement has %d/%d tiles, grid has %d",
				len(opts.Warm.X), len(opts.Warm.Y), n)
		}
		warmX = make([]float64, n)
		warmY = make([]float64, n)
		for i := 0; i < n; i++ {
			warmX[i] = float64(opts.Warm.X[i])
			warmY[i] = float64(opts.Warm.Y[i])
		}
	}
	pl, _, _, err := solveLS(res, opts, warmX, warmY)
	return pl, err
}

// solveLS is the shared driver behind SolveLeastSquares and Resolver:
// build the sparse system once, seed positions (warm vectors, else the
// robust spanning tree, else nominal), then run IRLS rounds around the
// PCG engine. It returns the placement plus the un-normalized float
// solution, which Resolver retains as the next warm start.
func solveLS(res *stitch.Result, opts LSOptions, warmX, warmY []float64) (*Placement, []float64, []float64, error) {
	g := res.Grid
	if err := g.Validate(); err != nil {
		return nil, nil, nil, err
	}
	n := g.NumTiles()
	opts = opts.withDefaults(n)

	sp := opts.Obs.StartSpan(obs.TrackPhase2, obs.SpanSolveLS,
		obs.String("grid", fmt.Sprintf("%dx%d", g.Rows, g.Cols)))
	defer sp.End()

	edges, dropped, err := buildLSEdges(res, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	sys, err := newLSSystem(g.Rows, g.Cols, edges)
	if err != nil {
		return nil, nil, nil, err
	}

	px, py := warmX, warmY
	if px == nil {
		px, py = seedPositions(res, opts.MinCorr)
	}

	// IRLS rounds: reweight from the current positions (the seed
	// supplies the first residuals, so outliers are suppressed BEFORE
	// the first solve), then solve. With Rounds=1 the weights stay at
	// their correlation values (plain weighted least squares).
	c2 := opts.ResidualScale * opts.ResidualScale
	reweight := opts.Rounds > 1 || (opts.warmIncremental && !opts.Unweighted)
	roundsRun, cgIters := 0, 0
	par := newParRun(opts.Pool, n)
	defer par.release()
	st := newPCGState(sys, g.Rows, g.Cols)
	for round := 0; round < opts.Rounds; round++ {
		roundsRun++
		if reweight {
			par.do(func(w int) {
				lo, hi := par.share(len(sys.edges), w)
				sys.reweightRange(px, py, c2, lo, hi)
			})
		}
		st.refresh()
		ix, mx := st.solveAxis(px, st.bx, opts.Tol, opts.MaxIter, par)
		iy, my := st.solveAxis(py, st.by, opts.Tol, opts.MaxIter, par)
		cgIters += ix + iy
		// Round-level IRLS convergence: if this round barely moved any
		// tile, the next reweighting changes the weights by the same
		// order — the iteration has fixed-pointed and further rounds
		// would re-solve an unchanged system. This is what makes warm
		// re-solves cheap: the first round does the (local) correction,
		// then the loop exits instead of paying full CG cost four more
		// times.
		if mx < irlsRoundTolFactor*opts.Tol && my < irlsRoundTolFactor*opts.Tol {
			break
		}
	}
	// The last round's assembly is current: no weight changed after it.
	if opts.Obs != nil && roundsRun > 0 {
		opts.Obs.Gauge(obs.GaugeLSResidualPx).Set(sys.residualMax(px, py, st.diag, st.bx, st.by))
	}
	opts.Obs.Counter(obs.CounterLSRounds).Add(int64(roundsRun))
	opts.Obs.Counter(obs.CounterLSItersCG).Add(int64(cgIters))

	pl := &Placement{Grid: g, X: make([]int, n), Y: make([]int, n), Dropped: dropped}
	for i := 0; i < n; i++ {
		pl.X[i] = int(math.Round(px[i]))
		pl.Y[i] = int(math.Round(py[i]))
	}
	pl.normalize()
	return pl, px, py, nil
}

// seedPositions returns the starting positions of a cold solve: the
// robust spanning-tree placement, or nominal stage positions when the
// tree cannot be built. IRLS converges to the nearest local minimum, so
// starting from a fit that outliers cannot drag makes the first
// residuals meaningful and the suppression decisive.
func seedPositions(res *stitch.Result, minCorr float64) (px, py []float64) {
	g := res.Grid
	n := g.NumTiles()
	px = make([]float64, n)
	py = make([]float64, n)
	if seed, err := Solve(res, Options{MinCorr: minCorr, RepairOutliers: true}); err == nil {
		for i := 0; i < n; i++ {
			px[i] = float64(seed.X[i])
			py[i] = float64(seed.Y[i])
		}
		return px, py
	}
	nomW := g.NominalDisplacement(tile.West)
	nomN := g.NominalDisplacement(tile.North)
	for i := 0; i < n; i++ {
		c := g.CoordOf(i)
		px[i] = float64(c.Col * nomW.X)
		py[i] = float64(c.Row * nomN.Y)
	}
	return px, py
}
