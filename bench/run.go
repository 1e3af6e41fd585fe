package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hybridstitch/internal/accuracy"
	"hybridstitch/internal/fft"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
)

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one workload run. Correct, Attempted, Failed
// and Metrics are the result line the driver reads; Samples says how many
// in-run samples stand behind each median.
type report struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Samples   map[string]stats `json:"samples,omitempty"`
	// Layers is the traced run's split of span wall time by layer, in
	// seconds; its rows add up to LayerWall.
	Layers    map[string]float64 `json:"layers,omitempty"`
	LayerWall float64            `json:"layer_wall_s,omitempty"`
}

// ops counts the operations a run attempted and the ones that failed;
// a failed correctness gate is a failed operation.
type ops struct{ attempted, failed int }

func (o *ops) add(attempted, failed int) {
	o.attempted += attempted
	o.failed += failed
}

// check counts one gate and reports a failure on standard error.
func (o *ops) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
	}
}

// maxColdDiff and maxWarmDiff gate the timed solves' distance, in px of
// |Δx|+|Δy|, from the tight-tolerance solve of the grown graph. One
// reference serves both (at 59k tiles it costs two cold solves): over seeds
// 200–211 the cold solve of the shorter graph sits 2–3 px from it and the
// one-round warm solve 2–5 px, while a solver that stalls is 17 px off.
const (
	maxColdDiff = 4
	maxWarmDiff = 8
)

// run is one workload run in progress.
type run struct {
	spec    spec
	seed    int64
	seconds time.Duration
	out     string
	pipe    *pipeline
	ops     ops
	rep     *report
	in      *inputs
	pyramid string // the pyramid file the stitch stage writes

	// tr is nil in an untraced run. A traced run makes one pass per
	// stage and collects the per-layer numbers in layer.
	tr    *tracer
	layer map[string]float64
}

// more reports whether a stage that has made n passes since start makes
// another: its minimum, and for the stage the workload scales as many as
// fit in -seconds. A traced run makes one. Before a pass it collects the
// garbage of the one before, as testing.B does between runs: a pass then
// starts like the fresh process a user's command is, and a 30 ms solve is
// not timed with or without a collection by chance.
func (r *run) more(st stage, n, minimum int, start time.Time) bool {
	if r.tr != nil {
		return n == 0
	}
	if n < minimum || (r.spec.Scales == st && time.Since(start) < r.seconds) {
		runtime.GC()
		return true
	}
	return false
}

// runWorkload generates s's inputs from seed, runs the three stages and
// the correctness gates, and returns the report. With trace it measures
// one traced pass per stage and reports the per-layer metrics instead of
// the end-to-end ones.
func runWorkload(s spec, seed int64, seconds float64, trace bool, out string) (*report, error) {
	r := &run{
		spec: s, seed: seed, seconds: time.Duration(seconds * float64(time.Second)), out: out,
		pipe:  &pipeline{threads: runtime.GOMAXPROCS(0), planner: fft.NewPlanner(fft.Measure)},
		rep:   &report{Workload: s.Name, Seed: seed, Traced: trace, Metrics: map[string]value{}, Samples: map[string]stats{}},
		layer: map[string]float64{},
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(out, "work-"+s.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	r.pyramid = filepath.Join(work, "plate.ptif")

	// Set-up takes seconds on every workload, so a run has time for it
	// once; setup_s is that one measurement.
	t := time.Now()
	if r.in, err = setUp(s, seed, filepath.Join(work, "inputs")); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(t)
	runtime.GC()
	if err := r.warmUp(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if trace {
		r.tr = newTracer()
	}
	if err := r.stitchStage(); err != nil {
		return nil, fmt.Errorf("stitch stage: %w", err)
	}
	if err := r.solveStage(); err != nil {
		return nil, fmt.Errorf("solve stage: %w", err)
	}
	if err := r.serveStage(); err != nil {
		return nil, fmt.Errorf("serve stage: %w", err)
	}

	if trace {
		if err := r.finishTrace(); err != nil {
			return nil, err
		}
	} else {
		r.metric("setup_s", []float64{setup.Seconds()})
	}
	r.rep.Attempted, r.rep.Failed = r.ops.attempted, r.ops.failed
	r.rep.Correct = r.ops.failed == 0
	return r.rep, nil
}

// metric reports the median of samples under name, with the unit its
// definition gives.
func (r *run) metric(name string, samples []float64) {
	st := summarize(samples)
	r.rep.Samples[name] = st
	r.rep.Metrics[name] = value{st.Median, unitOf(name)}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the tables of metrics.go")
}

// warmUp runs the pipeline once, untimed, on the plate's corner: same
// tile size, so it fills the planner's wisdom, the autotune cache and
// the aligner pools the timed reps then find warm.
func (r *run) warmUp() error {
	_, err := r.pipe.stitchOnce(r.in.source(r.spec.corner()), r.pyramid)
	return err
}

// stitchStage runs the timed tile-directory → served-pyramid reps and
// the gates on the last one's output.
func (r *run) stitchStage() error {
	s := r.spec
	src := r.in.source(s.grid())
	var walls []float64
	var last *stitchRep
	start := time.Now()
	for n := 0; r.more(stageStitch, n, s.StitchReps, start); n++ {
		rep, err := r.pipe.stitchOnce(src, r.pyramid)
		if err != nil {
			return err
		}
		r.countPairs(rep.res)
		walls = append(walls, rep.wall.Seconds())
		last = rep
	}
	if r.tr != nil {
		// The one untraced pass above is the baseline of obs.overhead_pct.
		var err error
		if last, err = r.tracedStitch(src, walls[0]); err != nil {
			return err
		}
		r.countPairs(last.res)
	} else {
		r.metric("stitch_s", walls)
	}

	_, frac, _ := accuracy.ScorePlacement(r.in.truth, last.pl)
	if r.tr == nil {
		r.metric("tiles_within_1px_pct", []float64{100 * frac})
	}
	r.ops.check(100*frac >= s.MinWithin1, "%.2f %% of tiles within 1 px of truth after stitching, want %.0f", 100*frac, s.MinWithin1)
	same, err := pyramidMatchesCompose(last.pl, src, r.pyramid)
	if err != nil {
		return fmt.Errorf("comparing the pyramid with the in-memory compose: %w", err)
	}
	r.ops.check(same, "pyramid level 0 differs from compose.Compose of the same placement")
	return nil
}

// countPairs counts a rep's pairs as operations: a pair without a
// displacement or a degraded tile is a failure.
func (r *run) countPairs(res *stitch.Result) {
	missing := 0
	for _, p := range res.Grid.Pairs() {
		if _, ok := res.PairDisplacement(p); !ok {
			missing++
		}
	}
	r.ops.add(res.Grid.NumPairs(), missing)
	r.ops.add(res.Grid.NumTiles(), len(res.DegradedTiles))
}

// solveStage times cold and warm solves of the workload's displacement
// graph and checks them against a tight-tolerance reference.
func (r *run) solveStage() error {
	s := r.spec
	base, grown := r.in.base, r.in.grown
	ref, err := referenceSolve(grown)
	if err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}
	var cold, warm []float64
	var rep *solveRep
	start := time.Now()
	for n := 0; r.more(stageSolve, n, s.SolveReps, start); n++ {
		rec := newRecorder(r.tr)
		rep, err = solveOnce(base, grown, r.tr, rec)
		rec.Close()
		if err != nil {
			return err
		}
		cold = append(cold, rep.cold.Seconds())
		warm = append(warm, rep.warm.Seconds())
		dc, dw := placementDiff(rep.coldPl, ref), placementDiff(rep.warmPl, ref)
		r.ops.check(dc <= maxColdDiff, "cold solve is %d px from the reference, want at most %d", dc, maxColdDiff)
		r.ops.check(dw <= maxWarmDiff, "warm solve is %d px from the reference, want at most %d", dw, maxWarmDiff)
		r.layer["global.vs_reference_max_px"] = float64(dc)
	}
	if r.tr != nil {
		truth := firstRowsTruth(r.in.graphTruth, base.Grid.NumTiles())
		r.layer["global.rms_px"], _, r.layer["global.max_err_px"] = accuracy.ScorePlacement(truth, rep.coldPl)
		r.tracedSolve(rep)
		return nil
	}
	r.metric("solve_s", cold)
	r.metric("resolve_warm_s", warm)
	return nil
}

// serveStage replays viewer sessions against the pyramid the stitch
// stage wrote, a fresh server per round, then compares served tiles
// with stored ones.
func (r *run) serveStage() error {
	s := r.spec
	path := r.pyramid
	if r.in.served != "" {
		path = r.in.served
	}
	pf, err := tiffio.OpenPyramidFile(path)
	if err != nil {
		return err
	}
	defer pf.Close()
	clients := r.pipe.threads

	// Latencies are pooled over the rounds: every round starts from a
	// cold cache and replays the same kind of sessions, so together they
	// are one sample, with more requests beyond the 99th percentile than
	// a single round has.
	var latMs []float64
	var wall time.Duration
	var first *round
	var firstLists [][]tileAddr
	start := time.Now()
	for n := 0; r.more(stageServe, n, s.Rounds, start); n++ {
		lists := clientLists(pf.Pyramid, r.seed+int64(1000*n), clients, s.Requests)
		rec := newRecorder(r.tr)
		srv := startTileServer(pf.Pyramid, clients, rec)
		rd := srv.load(lists, r.tr)
		r.ops.add(s.Requests, rd.failed)
		latMs = append(latMs, rd.latMs...)
		wall += rd.wall
		if n == 0 {
			first, firstLists = rd, lists
			r.verifyServed(srv, pf.Pyramid)
		}
		srv.close()
		rec.Close()
	}
	if r.tr != nil {
		return r.tracedServe(path, pf.Pyramid, first, firstLists)
	}
	if len(latMs) == 0 {
		return fmt.Errorf("no request of %d completed", s.Requests)
	}
	sort.Float64s(latMs)
	for name, v := range map[string]float64{
		"serve_p50_ms": percentile(latMs, 50),
		"serve_p99_ms": percentile(latMs, 99),
		"serve_rps":    float64(len(latMs)) / wall.Seconds(),
	} {
		r.rep.Samples[name] = stats{N: len(latMs), Min: latMs[0], Median: v, Max: latMs[len(latMs)-1]}
		r.rep.Metrics[name] = value{v, unitOf(name)}
	}
	return nil
}

// verifyServed compares seeded served tiles with the stored ones, after
// the load and on the server that took it.
func (r *run) verifyServed(srv *tileServer, pyr *tiffio.Pyramid) {
	rng := rand.New(rand.NewSource(r.seed ^ 0x5eed))
	for _, a := range sampleTiles(pyr, rng, r.spec.Verify) {
		same, err := srv.servedEqualsStored(pyr, a)
		r.ops.check(err == nil && same, "served tile %v differs from Pyramid.ReadTileAt (%v)", a, err)
	}
}
