package main

import (
	"fmt"
	"sort"
	"time"

	"hybridstitch/internal/global"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/stitch"
)

// solveRep is one pass of the solve stage: a fresh Resolver solves the
// base plate cold, then the plate with one more row warm.
type solveRep struct {
	cold, warm     time.Duration
	coldPl, warmPl *global.Placement
	// Read from the program's recorder in traced runs.
	rounds, cgCold, cgWarm int64
	residualPx             float64
}

func solveOnce(base, grown *stitch.Result, tr *tracer, rec *obs.Recorder) (*solveRep, error) {
	rep := &solveRep{}
	root := tr.begin(-1, layerBench, "solve-rep")
	defer tr.end(root)
	r := global.NewResolver(global.LSOptions{Solver: global.SolverPCG, Obs: rec})
	rounds0, cg0 := rec.CounterValue(obs.CounterLSRounds), rec.CounterValue(obs.CounterLSItersCG)

	t := time.Now()
	id := tr.begin(root, layerGlobal, "solve-cold")
	pl, err := r.Solve(base)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("cold solve: %w", err)
	}
	rep.coldPl, rep.cold = pl, time.Since(t)
	rep.rounds = rec.CounterValue(obs.CounterLSRounds) - rounds0
	cg1 := rec.CounterValue(obs.CounterLSItersCG)
	rep.cgCold = cg1 - cg0
	rep.residualPx, _ = rec.Gauge(obs.GaugeLSResidualPx).Value()

	t = time.Now()
	id = tr.begin(root, layerGlobal, "solve-warm")
	pl, err = r.Solve(grown)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("warm solve: %w", err)
	}
	rep.warmPl, rep.warm = pl, time.Since(t)
	rep.cgWarm = rec.CounterValue(obs.CounterLSItersCG) - cg1
	return rep, nil
}

// referenceSolve is the tight-tolerance solve the timed placements are
// checked against.
func referenceSolve(res *stitch.Result) (*global.Placement, error) {
	return global.SolveLeastSquares(res, global.LSOptions{Solver: global.SolverPCG, Tol: 1e-6})
}

// placementDiff returns the largest |Δx|+|Δy| between a and the same
// tiles of b (a may be the first rows of b's plate). Placements are
// normalized to their own minimum, so the median offset per axis is
// removed first.
func placementDiff(a, b *global.Placement) int {
	n := len(a.X)
	dx, dy := make([]int, n), make([]int, n)
	for i := range dx {
		dx[i], dy[i] = a.X[i]-b.X[i], a.Y[i]-b.Y[i]
	}
	mx, my := medianInt(dx), medianInt(dy)
	worst := 0
	for i := range dx {
		worst = max(worst, abs(dx[i]-mx)+abs(dy[i]-my))
	}
	return worst
}

func medianInt(xs []int) int {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s[len(s)/2]
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
