package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"hybridstitch/internal/compose"
	"hybridstitch/internal/global"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/memgov"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tile"
)

// stage names the three things a user does with the system; every
// workload runs all three, and scales one.
type stage string

const (
	stageStitch stage = "stitch" // tile directory → served pyramid
	stageSolve  stage = "solve"  // displacement graph → positions, cold then warm
	stageServe  stage = "serve"  // viewer sessions against the tile server
)

// plate is a grid of imagegen.DefaultParams tiles (20 % overlap, jitter 3).
type plate struct{ Rows, Cols, TileW, TileH int }

func (p plate) params(seed int64) imagegen.Params {
	params := imagegen.DefaultParams(p.Rows, p.Cols, p.TileW, p.TileH)
	params.Seed = seed
	return params
}

// spec is one workload: the inputs of the three stages and which stage
// keeps repeating until -seconds is used up. The other two run the fixed
// small doses given here, so that every end-to-end metric is measured on
// every workload.
type spec struct {
	Name string
	Why  string

	// The stitch stage runs on Plate, written as per-tile TIFFs.
	Plate      plate
	StitchReps int

	// The solve stage solves a synthetic GraphRows×GraphCols displacement
	// graph cold, then the graph with one more row warm.
	GraphRows, GraphCols int
	SolveReps            int

	// The serve stage replays viewer sessions, Rounds rounds of Requests
	// requests, then compares Verify served tiles with the stored ones. It
	// serves the pyramid the stitch stage wrote, unless Served names a
	// plate: that one is composed at its true positions during set-up.
	Served                   *plate
	Requests, Rounds, Verify int

	Scales stage

	// Corner is the side of the top-left sub-grid of Plate used for the
	// untimed warm-up and for the six-implementation sweep of the traced
	// run.
	Corner int
	// MinWithin1 is the correctness gate on tiles_within_1px_pct.
	MinWithin1 float64
}

// workloads returns the four workloads at the given scale. Smoke keeps
// the structure and shrinks every input so that bench_test.go can run
// all of them in seconds.
func workloads(scale string) ([]spec, error) {
	// small is the plate of the stitch doses: few enough tiles to stitch in
	// a quarter second, overlaps wide enough that every seed tried places
	// every tile within 1 px.
	small := plate{4, 4, 512, 384}
	full := []spec{
		{
			Name:  "grid-1k",
			Why:   "1024 small tiles, 1984 cheap pairs: decode, CCF, queueing and compose+deflate carry the run and auto picks PCG",
			Plate: plate{32, 32, 256, 192}, StitchReps: 2,
			GraphRows: 30, GraphCols: 30, SolveReps: 20,
			Requests: 600, Rounds: 1, Verify: 64,
			Scales: stageStitch, Corner: 8, MinWithin1: 97,
		},
		{
			Name:  "paper-tile",
			Why:   "16 tiles of the paper's 1392x1040 size: non-power-of-two FFT and NCC+inverse dominate, the solver does nothing",
			Plate: plate{4, 4, 1392, 1040}, StitchReps: 2,
			GraphRows: 30, GraphCols: 30, SolveReps: 20,
			Requests: 600, Rounds: 1, Verify: 64,
			Scales: stageStitch, Corner: 2, MinWithin1: 100,
		},
		{
			Name:  "resolve-59k",
			Why:   "phase 2 alone at paper-plate scale: 250x235 synthetic graph solved cold, then warm after one appended row",
			Plate: small, StitchReps: 5,
			GraphRows: 250, GraphCols: 235, SolveReps: 2,
			Requests: 600, Rounds: 1, Verify: 64,
			Scales: stageSolve, Corner: 2, MinWithin1: 100,
		},
		{
			Name:  "serve-viewers",
			Why:   "closed-loop viewer sessions over HTTP on the 1024-tile pyramid with a cache a quarter of level 0: hits and misses in one mix",
			Plate: small, StitchReps: 5,
			GraphRows: 30, GraphCols: 30, SolveReps: 20,
			Served: &plate{32, 32, 256, 192}, Requests: 600, Rounds: 2, Verify: 64,
			Scales: stageServe, Corner: 2, MinWithin1: 100,
		},
	}
	switch scale {
	case "full":
		return full, nil
	case "smoke":
		smoke := []spec{
			{Plate: plate{4, 4, 256, 192}},
			{Plate: plate{2, 2, 174, 130}},
			{Plate: plate{3, 3, 128, 96}},
			{Plate: plate{3, 3, 128, 96}, Served: &plate{4, 4, 256, 192}},
		}
		for i, s := range smoke {
			s.Name, s.Why, s.Scales, s.MinWithin1 = full[i].Name, full[i].Why, full[i].Scales, full[i].MinWithin1
			s.GraphRows, s.GraphCols = 20, 20
			s.StitchReps, s.SolveReps, s.Requests, s.Rounds, s.Verify, s.Corner = 1, 2, 100, 1, 8, 2
			smoke[i] = s
		}
		return smoke, nil
	}
	return nil, fmt.Errorf("unknown -scale %q (want full or smoke)", scale)
}

func (s spec) grid() tile.Grid { return s.Plate.params(0).Grid }

// corner returns the top-left Corner×Corner sub-grid of the plate. A
// DirSource over it reads the same files as the full plate's corner.
func (s spec) corner() tile.Grid {
	g := s.grid()
	g.Rows, g.Cols = min(g.Rows, s.Corner), min(g.Cols, s.Corner)
	return g
}

// inputs are one workload's generated inputs. Everything random in them
// comes from the seed.
type inputs struct {
	dir   string            // Plate's tile directory in DirSource layout
	truth *imagegen.Dataset // ground-truth positions only; the pixels are on disk
	// The solve stage's graph: grown is base plus one row.
	base, grown *stitch.Result
	graphTruth  *imagegen.Dataset
	// served is the pyramid of spec.Served, "" when the stitch stage's
	// pyramid is the one served.
	served string
}

// setUp generates the workload's inputs under dir. It is what setup_s
// times.
func setUp(s spec, seed int64, dir string) (*inputs, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	in := &inputs{dir: filepath.Join(dir, "tiles")}
	ds, err := imagegen.Generate(s.Plate.params(seed))
	if err != nil {
		return nil, fmt.Errorf("generating the plate: %w", err)
	}
	if err := stitch.WriteDataset(in.dir, ds); err != nil {
		return nil, fmt.Errorf("writing the plate: %w", err)
	}
	// The program reads the pixels back from disk; holding them here too
	// would only change its garbage collector's pacing.
	ds.Tiles = nil
	in.truth = ds

	in.grown, in.graphTruth = synthGraph(s.GraphRows+1, s.GraphCols, seed)
	in.base = firstRows(in.grown, s.GraphRows)

	if s.Served != nil {
		in.served = filepath.Join(dir, "served.ptif")
		if err := composeAtTruth(*s.Served, seed, in.served); err != nil {
			return nil, fmt.Errorf("composing the served plate: %w", err)
		}
	}
	return in, nil
}

// composeAtTruth generates plate p and composes it at its ground-truth
// positions into a pyramid at path, with the options the stitch stage
// composes with.
func composeAtTruth(p plate, seed int64, path string) error {
	ds, err := imagegen.Generate(p.params(seed))
	if err != nil {
		return err
	}
	pl := &global.Placement{Grid: ds.Params.Grid, X: make([]int, len(ds.TruthX)), Y: make([]int, len(ds.TruthY))}
	minX, minY := slices.Min(ds.TruthX), slices.Min(ds.TruthY)
	for i := range pl.X {
		pl.X[i], pl.Y[i] = ds.TruthX[i]-minX, ds.TruthY[i]-minY
	}
	return compose.ComposeShardedFile(pl, &stitch.MemorySource{DS: ds}, path,
		compose.ShardedOpts{Blend: compose.BlendOverlay, Gov: memgov.New(composeBudget, 0)})
}

func (in *inputs) source(g tile.Grid) *stitch.DirSource {
	return &stitch.DirSource{Dir: in.dir, GridSpec: g}
}

// synthGraph fabricates a phase-1 result at the paper's tile size without
// images, the way the root bench_test.go's synthPlateResult does: truth
// within ±3 px of the nominal stage positions, ±1 px noise per pair, and
// 1 % confidently wrong pairs for the IRLS rounds to defuse. Every draw
// is keyed to the tile coordinate, so the first rows of a taller graph
// equal the shorter graph.
func synthGraph(rows, cols int, seed int64) (*stitch.Result, *imagegen.Dataset) {
	g := tile.Grid{Rows: rows, Cols: cols, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
	n := g.NumTiles()
	nomW := g.NominalDisplacement(tile.West)
	nomN := g.NominalDisplacement(tile.North)
	rngAt := func(c tile.Coord, salt int) *rand.Rand {
		return rand.New(rand.NewSource(seed + int64(c.Row)*1_000_003 + int64(c.Col)*4 + int64(salt)))
	}
	truth := &imagegen.Dataset{TruthX: make([]int, n), TruthY: make([]int, n)}
	for i := 0; i < n; i++ {
		c := g.CoordOf(i)
		r := rngAt(c, 0)
		truth.TruthX[i] = c.Col*nomW.X + r.Intn(7) - 3
		truth.TruthY[i] = c.Row*nomN.Y + r.Intn(7) - 3
	}
	res := &stitch.Result{Grid: g, West: make([]tile.Displacement, n), North: make([]tile.Displacement, n)}
	for i := range res.West {
		res.West[i].Corr = math.NaN()
		res.North[i].Corr = math.NaN()
	}
	for _, p := range g.Pairs() {
		to, from := g.Index(p.Coord), g.Index(p.Neighbor())
		salt := 1
		if p.Dir == tile.North {
			salt = 2
		}
		r := rngAt(p.Coord, salt)
		d := tile.Displacement{
			X:    truth.TruthX[to] - truth.TruthX[from],
			Y:    truth.TruthY[to] - truth.TruthY[from],
			Corr: 0.7 + 0.25*r.Float64(),
		}
		if r.Float64() < 0.01 {
			d.X, d.Y, d.Corr = d.X+35, d.Y-20, 0.97
		} else {
			d.X += r.Intn(3) - 1
			d.Y += r.Intn(3) - 1
		}
		if p.Dir == tile.West {
			res.West[to] = d
		} else {
			res.North[to] = d
		}
	}
	return res, truth
}

// firstRows returns the first rows rows of a phase-1 result: the plate
// before its last rows were scanned. Grid order is row-major, so the
// displacement arrays are prefixes.
func firstRows(res *stitch.Result, rows int) *stitch.Result {
	g := res.Grid
	g.Rows = rows
	n := g.NumTiles()
	return &stitch.Result{Grid: g, West: res.West[:n:n], North: res.North[:n:n]}
}

// firstRowsTruth is firstRows for ground truth.
func firstRowsTruth(ds *imagegen.Dataset, n int) *imagegen.Dataset {
	return &imagegen.Dataset{TruthX: ds.TruthX[:n], TruthY: ds.TruthY[:n]}
}
