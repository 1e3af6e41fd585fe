package report

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hybridstitch/internal/accuracy"
	"hybridstitch/internal/compose"
	"hybridstitch/internal/fft"
	"hybridstitch/internal/global"
	"hybridstitch/internal/gpu"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/machine"
	"hybridstitch/internal/memgov"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
	"hybridstitch/internal/tileserve"
)

// Options configures experiment runs.
type Options struct {
	// OutDir receives PNG artifacts (Figs 13, 14). Empty skips writing.
	OutDir string
	// Quick shrinks the real-measurement workloads further.
	Quick bool
	// Seed fixes dataset generation.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// realGridSize returns the reduced workload dimensions for real runs.
func (o Options) realGridSize() (rows, cols, tw, th int) {
	if o.Quick {
		return 4, 4, 96, 64
	}
	return 6, 8, 128, 96
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (string, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I — operation counts & complexities", runTable1},
		{"table2", "Table II — run times and speedups, 42×59 grid", runTable2},
		{"fig5", "Fig 5 — virtual-memory performance cliff", runFig5},
		{"fig7", "Fig 7 — Simple-GPU profiler timeline", runFig7},
		{"fig9", "Fig 9 — Pipelined-GPU profiler timeline", runFig9},
		{"fig10", "Fig 10 — Pipelined-GPU (2 GPUs) vs CCF threads", runFig10},
		{"fig11", "Fig 11 — Pipelined-CPU strong scaling", runFig11},
		{"fig12", "Fig 12 — Pipelined-CPU speedup surface", runFig12},
		{"fig13", "Fig 13 — composed grid, overlay blend", runFig13},
		{"fig14", "Fig 14 — composed grid with highlighted tiles", runFig14},
		{"planner", "§IV — FFT planning-mode comparison", runPlanner},
		{"traversal", "§IV — traversal order vs peak transform memory", runTraversal},
		{"laptop", "§VI — 3-year-old-laptop validation", runLaptop},
		{"accuracy", "extension — stitching accuracy vs ground truth", runAccuracy},
		{"adversarial", "extension — adversarial plates: weighted vs unweighted survival", runAdversarial},
		{"ablation-fft", "§VI.A — padding & real-to-complex FFT ablation", runAblationFFT},
		{"ablation-ccf", "design — CCF placement (CPU vs GPU) ablation", runAblationCCF},
		{"ablation-pool", "design — GPU buffer pool size ablation", runAblationPool},
		{"ablation-hyperq", "§VI.A — Kepler Hyper-Q kernel concurrency ablation", runAblationHyperQ},
		{"ablation-variants", "§VI.A — FFT layout (complex / real) × transform size (exact / planned) pipeline ablation", runAblationVariants},
		{"bottleneck", "analysis — per-resource utilization of the modeled runs", runBottleneck},
		{"solvers", "phase 2 — spanning tree vs least-squares placement", runSolvers},
		{"solver-scaling", "extension — phase-2 LS engines vs plate size (GS / PCG / warm)", runSolverScaling},
		{"ablation-sockets", "§IV.B — per-socket CPU pipelines (future work)", runAblationSockets},
		{"drift", "extension — thermal stage drift and the linear stage model", runDrift},
		{"io-overlap", "§IV.B — pipeline hides I/O latency (real wall times)", runIOOverlap},
		{"queues", "design — inter-stage queue backpressure vs capacity", runQueues},
		{"sensitivity", "analysis — Table II ordering vs calibration error", runSensitivity},
		{"scale", "§I — scaling to the intro's workloads (up to 10,000 tiles)", runScale},
		{"serve", "extension — out-of-core composition + tile-server load test", runServe},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	var ids []string
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("report: unknown experiment %q (have %v)", id, ids)
}

// paperGrid is the paper's evaluation workload.
func paperGrid() tile.Grid {
	return tile.Grid{Rows: 42, Cols: 59, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
}

// realDataset builds the reduced-scale dataset for functional runs.
func realDataset(o Options) (*stitch.MemorySource, *imagegen.Dataset, error) {
	rows, cols, tw, th := o.realGridSize()
	p := imagegen.DefaultParams(rows, cols, tw, th)
	p.Seed = o.Seed
	ds, err := imagegen.Generate(p)
	if err != nil {
		return nil, nil, err
	}
	return &stitch.MemorySource{DS: ds, ReadDelay: 2 * time.Millisecond}, ds, nil
}

func runTable1(o Options) (string, error) {
	var sb strings.Builder
	sb.WriteString(stitch.Census(paperGrid()).String())
	sb.WriteString("\n(at reduced experiment scale)\n")
	rows, cols, tw, th := o.withDefaults().realGridSize()
	sb.WriteString(stitch.Census(tile.Grid{Rows: rows, Cols: cols, TileW: tw, TileH: th, OverlapX: 0.2, OverlapY: 0.2}).String())
	return sb.String(), nil
}

// table2Rows defines the paper's Table II configurations.
type table2Row struct {
	label   string
	impl    string
	threads int
	gpus    int
	paperS  float64
}

func table2Rows() []table2Row {
	return []table2Row{
		{"ImageJ/Fiji", "fiji", 5, 0, 3.6 * 3600},
		{"Simple-CPU", "simple-cpu", 1, 0, 10.6 * 60},
		{"MT-CPU", "mt-cpu", 16, 0, 96},
		{"Pipelined-CPU", "pipelined-cpu", 16, 0, 84},
		{"Simple-GPU", "simple-gpu", 1, 1, 9.3 * 60},
		{"Pipelined-GPU", "pipelined-gpu", 16, 1, 49.7},
		{"Pipelined-GPU", "pipelined-gpu", 16, 2, 26.6},
	}
}

func runTable2(o Options) (string, error) {
	o = o.withDefaults()
	g := paperGrid()

	model := Table{
		Title:   "Table II (model, paper scale: 42×59 of 1392×1040, paper host)",
		Headers: []string{"Implementation", "Thr", "GPUs", "Paper", "Model", "Model/Paper"},
	}
	for _, r := range table2Rows() {
		s, err := machine.Predict(machine.RunSpec{Impl: r.impl, Grid: g, Threads: r.threads, GPUs: r.gpus})
		if err != nil {
			return "", err
		}
		model.Add(r.label, r.threads, r.gpus, fmtDur(r.paperS), fmtDur(s), fmt.Sprintf("%.2f", s/r.paperS))
	}

	// Real functional runs at reduced scale on the simulated devices.
	src, _, err := realDataset(o)
	if err != nil {
		return "", err
	}
	devs := []*gpu.Device{gpu.New(gpu.Config{Name: "GPU0"}), gpu.New(gpu.Config{Name: "GPU1"})}
	defer devs[0].Close()
	defer devs[1].Close()
	real := Table{
		Title:   fmt.Sprintf("Table II (real functional runs, reduced scale %dx%d of %dx%d, simulated GPUs)", src.Grid().Rows, src.Grid().Cols, src.Grid().TileW, src.Grid().TileH),
		Headers: []string{"Implementation", "Thr", "GPUs", "Wall", "Transforms", "PeakLive"},
	}
	for _, r := range table2Rows() {
		if r.gpus == 2 && r.impl != "pipelined-gpu" {
			continue
		}
		impl, err := stitch.ByName(r.impl)
		if err != nil {
			return "", err
		}
		opts := stitch.Options{Threads: min(r.threads, 4), Devices: devs[:max(r.gpus, 0)]}
		res, err := impl.Run(src, opts)
		if err != nil {
			return "", err
		}
		real.Add(r.label, opts.Threads, r.gpus, res.Elapsed.Round(time.Millisecond).String(),
			res.TransformsComputed, res.PeakTransformsLive)
	}
	if err := writeCSV(o, "table2_model", &model); err != nil {
		return "", err
	}
	if err := writeCSV(o, "table2_real", &real); err != nil {
		return "", err
	}
	return model.String() + "\n" + real.String(), nil
}

func runFig5(o Options) (string, error) {
	host := machine.Fig5Host()
	costs := machine.PaperCosts()
	tilesAxis := []int{512, 576, 640, 704, 768, 832, 864, 896, 960, 1024}
	threadAxis := []int{1, 2, 4, 8, 16}

	tbl := Table{
		Title:   "Fig 5 (model): FFT-workload speedup vs tiles × threads, 24 GB host",
		Headers: append([]string{"tiles \\ threads"}, intsToStrs(threadAxis)...),
	}
	for _, tiles := range tilesAxis {
		g := tile.Grid{Rows: tiles / 32, Cols: 32, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
		row := []interface{}{tiles}
		for _, th := range threadAxis {
			sp, err := machine.FFTWorkloadSpeedup(g, host, costs, th)
			if err != nil {
				return "", err
			}
			row = append(row, fmt.Sprintf("%.2f", sp))
		}
		tbl.Add(row...)
	}

	if err := writeCSV(o, "fig5_speedups", &tbl); err != nil {
		return "", err
	}
	// Real demonstration with the memory governor: a sequential FFT
	// workload crossing a tiny simulated RAM limit.
	var sb strings.Builder
	sb.WriteString(tbl.String())
	sb.WriteString("\nReal governor demonstration (sequential FFTs, simulated 32-transform RAM):\n")
	gov := memgov.New(32*int64(128*96*16), 200*time.Nanosecond)
	plan, err := fft.NewPlan2D(96, 128, fft.Forward, fft.Plan2DOpts{})
	if err != nil {
		return "", err
	}
	buf := make([]complex128, 128*96)
	var below, above time.Duration
	// The allocations stay live for the whole loop on purpose: crossing
	// the governor's RAM limit at i == 32 is the paging cliff being
	// demonstrated. They are released together afterwards.
	var held []*memgov.Allocation
	defer func() {
		for _, a := range held {
			_ = a.Free()
		}
	}()
	for i := 0; i < 64; i++ {
		a, err := gov.Alloc(int64(128 * 96 * 16))
		if err != nil {
			return "", err
		}
		held = append(held, a)
		t0 := time.Now()
		gov.Touch(int64(128 * 96 * 16))
		if err := plan.Execute(buf); err != nil {
			return "", err
		}
		d := time.Since(t0)
		if i < 32 {
			below += d
		} else {
			above += d
		}
	}
	fmt.Fprintf(&sb, "  mean FFT below limit: %v   above limit: %v   (cliff ratio %.1fx)\n",
		(below / 32).Round(time.Microsecond), (above / 32).Round(time.Microsecond),
		float64(above)/float64(below))
	return sb.String(), nil
}

// profileRun executes one GPU implementation on a profiling device and
// reports its timeline.
func profileRun(o Options, impl stitch.Stitcher, gpus int) (string, error) {
	o = o.withDefaults()
	p := imagegen.DefaultParams(8, 8, 96, 64)
	p.Seed = o.Seed
	ds, err := imagegen.Generate(p)
	if err != nil {
		return "", err
	}
	src := &stitch.MemorySource{DS: ds, ReadDelay: time.Millisecond}
	var devs []*gpu.Device
	for d := 0; d < gpus; d++ {
		devs = append(devs, gpu.New(gpu.Config{Name: fmt.Sprintf("GPU%d", d), Profile: true,
			H2DBytesPerSec: 2e9, D2HBytesPerSec: 2e9}))
	}
	defer func() {
		for _, d := range devs {
			d.Close()
		}
	}()
	if _, err := impl.Run(src, stitch.Options{Threads: 4, Devices: devs}); err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, d := range devs {
		tl := d.Timeline()
		spans := tl.Spans()
		if len(spans) == 0 {
			continue
		}
		from, to := spans[0].Start, spans[len(spans)-1].End
		fmt.Fprintf(&sb, "%s (%s, 8×8 grid):\n", d.Name(), impl.Name())
		sb.WriteString(tl.Render(96))
		fmt.Fprintf(&sb, "kernel-row utilization: %.1f%%   gaps > 200µs: %d\n\n",
			100*tl.Utilization("kernel", from, to), tl.GapCount("kernel", 200*time.Microsecond))
	}
	return sb.String(), nil
}

func runFig7(o Options) (string, error) {
	out, err := profileRun(o, &stitch.SimpleGPU{}, 1)
	if err != nil {
		return "", err
	}
	return "Fig 7 analogue — synchronous single-stream execution: sparse kernel row, gaps for CPU work.\n\n" + out, nil
}

func runFig9(o Options) (string, error) {
	out, err := profileRun(o, &stitch.PipelinedGPU{}, 1)
	if err != nil {
		return "", err
	}
	return "Fig 9 analogue — pipelined multi-stream execution: dense kernel row, copies overlapped.\n\n" + out, nil
}

func runFig10(o Options) (string, error) {
	g := paperGrid()
	var xs, ys []float64
	tbl := Table{Title: "Fig 10 (model): Pipelined-GPU, 2 GPUs, 42×59 grid", Headers: []string{"CCF threads", "Time (s)"}}
	for th := 1; th <= 16; th++ {
		s, err := machine.Predict(machine.RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, CCFThreads: th, GPUs: 2})
		if err != nil {
			return "", err
		}
		xs = append(xs, float64(th))
		ys = append(ys, s)
		tbl.Add(th, fmt.Sprintf("%.1f", s))
	}
	if err := writeCSV(o, "fig10_ccf_threads", &tbl); err != nil {
		return "", err
	}
	return tbl.String() + "\n" + PlotASCII("Fig 10: time vs CCF threads", "CCF threads", "seconds", 10,
		Series{Label: "2 GPUs", X: xs, Y: ys}), nil
}

func runFig11(o Options) (string, error) {
	g := paperGrid()
	t1, err := machine.Predict(machine.RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: 1})
	if err != nil {
		return "", err
	}
	var xs, times, speedups []float64
	tbl := Table{Title: "Fig 11 (model): Pipelined-CPU strong scaling, 42×59 grid", Headers: []string{"Threads", "Time (s)", "Speedup"}}
	for th := 1; th <= 16; th++ {
		s, err := machine.Predict(machine.RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: th})
		if err != nil {
			return "", err
		}
		xs = append(xs, float64(th))
		times = append(times, s)
		speedups = append(speedups, t1/s)
		tbl.Add(th, fmt.Sprintf("%.1f", s), fmt.Sprintf("%.2f", t1/s))
	}
	if err := writeCSV(o, "fig11_scaling", &tbl); err != nil {
		return "", err
	}
	return tbl.String() + "\n" + PlotASCII("Fig 11: speedup vs threads (knee at 8 physical cores)", "threads", "speedup", 10,
		Series{Label: "speedup", X: xs, Y: speedups}), nil
}

func runFig12(o Options) (string, error) {
	threadAxis := []int{1, 2, 4, 6, 8, 10, 12, 14, 16}
	tileAxis := []int{128, 256, 384, 512, 640, 768, 896, 1024}
	tbl := Table{
		Title:   "Fig 12 (model): Pipelined-CPU speedup surface (tiles × threads)",
		Headers: append([]string{"tiles \\ threads"}, intsToStrs(threadAxis)...),
	}
	for _, tiles := range tileAxis {
		g := tile.Grid{Rows: tiles / 16, Cols: 16, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
		t1, err := machine.Predict(machine.RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: 1})
		if err != nil {
			return "", err
		}
		row := []interface{}{tiles}
		for _, th := range threadAxis {
			s, err := machine.Predict(machine.RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: th})
			if err != nil {
				return "", err
			}
			row = append(row, fmt.Sprintf("%.2f", t1/s))
		}
		tbl.Add(row...)
	}
	if err := writeCSV(o, "fig12_surface", &tbl); err != nil {
		return "", err
	}
	return tbl.String(), nil
}

// composeExperiment runs the full three phases and writes a PNG.
func composeExperiment(o Options, highlight bool, file string) (string, error) {
	o = o.withDefaults()
	src, ds, err := realDataset(o)
	if err != nil {
		return "", err
	}
	res, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 4})
	if err != nil {
		return "", err
	}
	pl, err := global.Solve(res, global.Options{RepairOutliers: true})
	if err != nil {
		return "", err
	}
	rms, err := global.RMSError(pl, ds.TruthX, ds.TruthY)
	if err != nil {
		return "", err
	}
	w, h := pl.Bounds()
	var sb strings.Builder
	fmt.Fprintf(&sb, "composite: %dx%d px from %d tiles; placement RMS vs ground truth: %.2f px\n",
		w, h, pl.Grid.NumTiles(), rms)
	if o.OutDir == "" {
		sb.WriteString("(no -out directory given; PNG not written)\n")
		return sb.String(), nil
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(o.OutDir, file)
	if highlight {
		img, err := compose.HighlightGrid(pl, src, compose.BlendOverlay)
		if err != nil {
			return "", err
		}
		if err := compose.WriteRGBAPNGFile(path, img); err != nil {
			return "", err
		}
	} else {
		img, err := compose.Compose(pl, src, compose.BlendOverlay)
		if err != nil {
			return "", err
		}
		if err := compose.WritePNGFile(path, img); err != nil {
			return "", err
		}
	}
	fmt.Fprintf(&sb, "wrote %s\n", path)
	return sb.String(), nil
}

func runFig13(o Options) (string, error) { return composeExperiment(o, false, "fig13_composite.png") }
func runFig14(o Options) (string, error) { return composeExperiment(o, true, "fig14_highlight.png") }

func runPlanner(o Options) (string, error) {
	o = o.withDefaults()
	sizes := []int{348, 260} // 1392/4 and 1040/4: same factor structure
	if !o.Quick {
		sizes = append(sizes, 1392, 1040)
	}
	tbl := Table{
		Title:   "FFT planning modes (real measurements; paper: patient ≈ 2x over estimate for 1392×1040)",
		Headers: []string{"n", "mode", "strategy", "exec (µs)", "planning"},
	}
	for _, n := range sizes {
		for _, mode := range []fft.Mode{fft.Estimate, fft.Measure, fft.Patient} {
			pl := fft.NewPlanner(mode)
			p, err := pl.Plan(n, fft.Forward, fft.PlanOpts{})
			if err != nil {
				return "", err
			}
			buf := make([]complex128, n)
			for i := range buf {
				buf[i] = complex(float64(i%7), 0)
			}
			// time the best of a few executions
			best := time.Duration(1 << 62)
			for r := 0; r < 5; r++ {
				t0 := time.Now()
				if err := p.Execute(buf); err != nil {
					return "", err
				}
				if d := time.Since(t0); d < best {
					best = d
				}
			}
			tbl.Add(n, mode.String(), p.Strategy(), best.Microseconds(), pl.PlanningTime().Round(time.Microsecond).String())
		}
	}
	return tbl.String(), nil
}

func runTraversal(o Options) (string, error) {
	o = o.withDefaults()
	p := imagegen.DefaultParams(6, 10, 64, 48)
	p.Grid.OverlapX, p.Grid.OverlapY = 0.3, 0.3
	p.Seed = o.Seed
	ds, err := imagegen.Generate(p)
	if err != nil {
		return "", err
	}
	src := &stitch.MemorySource{DS: ds}
	tbl := Table{
		Title:   "Traversal order vs peak resident transforms (6×10 grid; paper default: chained-diagonal)",
		Headers: []string{"Traversal", "Peak live", "Wall"},
	}
	for _, tr := range stitch.Traversals() {
		res, err := (&stitch.SimpleCPU{}).Run(src, stitch.Options{Traversal: tr})
		if err != nil {
			return "", err
		}
		tbl.Add(tr.String(), res.PeakTransformsLive, res.Elapsed.Round(time.Millisecond).String())
	}
	return tbl.String(), nil
}

func runLaptop(o Options) (string, error) {
	g := paperGrid()
	lap := machine.LaptopHost()
	tbl := Table{
		Title:   "§VI laptop validation (model): i7-950, 12 GB, GTX 560M",
		Headers: []string{"Implementation", "Paper (s)", "Model (s)"},
	}
	gpuT, err := machine.Predict(machine.RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 8, CCFThreads: 8, GPUs: 1, Host: lap})
	if err != nil {
		return "", err
	}
	cpuT, err := machine.Predict(machine.RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: 8, Host: lap})
	if err != nil {
		return "", err
	}
	tbl.Add("Pipelined-GPU", 130, fmt.Sprintf("%.1f", gpuT))
	tbl.Add("Pipelined-CPU", 146, fmt.Sprintf("%.1f", cpuT))
	return tbl.String(), nil
}

func runAccuracy(o Options) (string, error) {
	o = o.withDefaults()
	tbl := Table{
		Title:   "Stitching accuracy vs ground truth (extension; the paper had no ground truth)",
		Headers: []string{"Colony density", "Pairs ±1 px", "Placement RMS (px)", "Repaired edges"},
	}
	for _, density := range []float64{1, 3, 12} {
		p := imagegen.DefaultParams(5, 5, 128, 96)
		p.Seed = o.Seed
		p.ColonyDensity = density
		ds, err := imagegen.Generate(p)
		if err != nil {
			return "", err
		}
		src := &stitch.MemorySource{DS: ds}
		res, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 4})
		if err != nil {
			return "", err
		}
		good := 0
		for _, pr := range p.Grid.Pairs() {
			got, _ := res.PairDisplacement(pr)
			want := ds.TrueDisplacement(pr)
			if absInt(got.X-want.X) <= 1 && absInt(got.Y-want.Y) <= 1 {
				good++
			}
		}
		pl, err := global.Solve(res, global.Options{RepairOutliers: true})
		if err != nil {
			return "", err
		}
		rms, err := global.RMSError(pl, ds.TruthX, ds.TruthY)
		if err != nil {
			return "", err
		}
		tbl.Add(density, fmt.Sprintf("%d/%d", good, p.Grid.NumPairs()), fmt.Sprintf("%.2f", rms), pl.Repaired)
	}
	return tbl.String(), nil
}

func runAdversarial(o Options) (string, error) {
	o = o.withDefaults()
	// Always the standard accuracy workload: the scenarios (and their
	// documented thresholds) are tuned for it, and a full run costs only
	// a few seconds — a shrunken grid would just misrepresent them.
	rows, cols, tw, th := 5, 6, 128, 96
	tbl := Table{
		Title: "Adversarial plates (extension): full weighted pipeline, and raw solver arms isolating confidence weighting",
		Headers: []string{"Scenario", "Pairs ±1 px", "Rescued", "RMS (px)", "±1 px frac",
			"raw wRMS", "raw uRMS"},
	}
	for _, sc := range imagegen.Scenarios(rows, cols, tw, th) {
		full, err := accuracy.RunScenario(sc, o.Seed, accuracy.PipelineOptions{Threads: 4})
		if err != nil {
			return "", err
		}
		rawW, err := accuracy.RunScenario(sc, o.Seed, accuracy.PipelineOptions{Threads: 4, NoRefine: true})
		if err != nil {
			return "", err
		}
		rawU, err := accuracy.RunScenario(sc, o.Seed, accuracy.PipelineOptions{Threads: 4, NoRefine: true, Unweighted: true})
		if err != nil {
			return "", err
		}
		m := full.Metrics
		tbl.Add(sc.Name,
			fmt.Sprintf("%d/%d", m.PairsWithin1, m.Pairs),
			m.PairsRescued,
			fmt.Sprintf("%.2f", m.PlacementRMS),
			fmt.Sprintf("%.2f", m.TilesWithin1Frac),
			fmt.Sprintf("%.2f", rawW.Metrics.PlacementRMS),
			fmt.Sprintf("%.2f", rawU.Metrics.PlacementRMS))
	}
	return tbl.String(), nil
}

func runAblationFFT(o Options) (string, error) {
	o = o.withDefaults()
	var sb strings.Builder
	// Padding ablation: awkward sizes vs next fast length.
	base := []int{348, 1392}
	if o.Quick {
		base = []int{348}
	}
	tbl := Table{
		Title:   "Padding ablation (paper §VI.A: pad tiles to small-prime sizes)",
		Headers: []string{"n", "strategy", "exec", "padded to", "strategy", "exec", "gain"},
	}
	for _, n := range base {
		tn, sn, err := timeFFT(n)
		if err != nil {
			return "", err
		}
		pad := fft.NextFastLength(n)
		tp, sp, err := timeFFT(pad)
		if err != nil {
			return "", err
		}
		// gain per element accounts for the larger padded size.
		gain := (float64(tn) / float64(n)) / (float64(tp) / float64(pad))
		tbl.Add(n, sn, time.Duration(tn).Round(time.Microsecond).String(),
			pad, sp, time.Duration(tp).Round(time.Microsecond).String(), fmt.Sprintf("%.2fx/elem", gain))
	}
	sb.WriteString(tbl.String())

	// Real-to-complex ablation.
	r2c := Table{
		Title:   "\nReal-to-complex ablation (paper §VI.A: r2c does less work)",
		Headers: []string{"size", "c2c 2-D", "r2c 2-D", "speedup"},
	}
	dims := [][2]int{{96, 128}, {240, 320}}
	for _, d := range dims {
		h, w := d[0], d[1]
		cp, err := fft.NewPlan2D(h, w, fft.Forward, fft.Plan2DOpts{})
		if err != nil {
			return "", err
		}
		rp, err := fft.NewRealPlan2D(h, w)
		if err != nil {
			return "", err
		}
		cbuf := make([]complex128, h*w)
		rbuf := make([]float64, h*w)
		for i := range rbuf {
			rbuf[i] = float64(i % 13)
			cbuf[i] = complex(rbuf[i], 0)
		}
		sh, sw := rp.SpectrumDims()
		spec := make([]complex128, sh*sw)
		tc := bestOf(5, func() error { return cp.Execute(cbuf) })
		tr := bestOf(5, func() error { return rp.Forward(spec, rbuf) })
		r2c.Add(fmt.Sprintf("%dx%d", h, w), tc.Round(time.Microsecond).String(), tr.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", float64(tc)/float64(tr)))
	}
	sb.WriteString(r2c.String())
	return sb.String(), nil
}

func runAblationCCF(o Options) (string, error) {
	g := paperGrid()
	tbl := Table{
		Title:   "CCF placement ablation (model; paper argues CPU placement minimizes D2H and frees the GPU)",
		Headers: []string{"Placement", "GPUs", "Time (s)"},
	}
	for _, gpus := range []int{1, 2} {
		cpuT, err := machine.Predict(machine.RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: gpus})
		if err != nil {
			return "", err
		}
		gpuT, err := machine.Predict(machine.RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: gpus, CCFOnGPU: true})
		if err != nil {
			return "", err
		}
		tbl.Add("CCF on CPU threads", gpus, fmt.Sprintf("%.1f", cpuT))
		tbl.Add("CCF on GPU kernels", gpus, fmt.Sprintf("%.1f", gpuT))
	}
	return tbl.String(), nil
}

func runAblationPool(o Options) (string, error) {
	o = o.withDefaults()
	src, _, err := realDataset(o)
	if err != nil {
		return "", err
	}
	g := src.Grid()
	minDim := g.Rows
	if g.Cols < minDim {
		minDim = g.Cols
	}
	tbl := Table{
		Title:   "GPU buffer pool size ablation (real runs; paper: pool must exceed the smallest grid dimension)",
		Headers: []string{"Pool (transforms)", "Outcome", "Wall", "Peak in use"},
	}
	for _, pool := range []int{minDim - 1, minDim + 2, 2*minDim + 4, 4 * minDim} {
		dev := gpu.New(gpu.Config{Name: "GPU0"})
		res, err := (&stitch.PipelinedGPU{}).Run(src, stitch.Options{
			Threads: 4, Devices: []*gpu.Device{dev}, PoolTransforms: pool})
		if err != nil {
			tbl.Add(pool, "rejected: "+truncate(err.Error(), 48), "-", "-")
		} else {
			tbl.Add(pool, "ok", res.Elapsed.Round(time.Millisecond).String(), res.PeakTransformsLive)
		}
		dev.Close()
	}
	return tbl.String(), nil
}

func runAblationHyperQ(o Options) (string, error) {
	o = o.withDefaults()
	g := paperGrid()
	tbl := Table{
		Title:   "Hyper-Q ablation (model, paper scale): concurrent-kernel slots per GPU",
		Headers: []string{"Kernel slots", "GPUs", "Time (s)"},
	}
	for _, gpus := range []int{1, 2} {
		for _, slots := range []int{1, 2, 4, 16} {
			s, err := machine.Predict(machine.RunSpec{
				Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: gpus, KernelSlots: slots})
			if err != nil {
				return "", err
			}
			tbl.Add(slots, gpus, fmt.Sprintf("%.1f", s))
		}
	}
	var sb strings.Builder
	sb.WriteString(tbl.String())

	// Real correctness + behavior demonstration on a Kepler-class
	// simulated device with multiple FFT-issuing streams.
	src, _, err := realDataset(o)
	if err != nil {
		return "", err
	}
	fermi := gpu.New(gpu.FermiConfig("C2070"))
	defer fermi.Close()
	kepler := gpu.New(gpu.KeplerConfig("K20"))
	defer kepler.Close()
	rFermi, err := (&stitch.PipelinedGPU{}).Run(src, stitch.Options{Threads: 4, Devices: []*gpu.Device{fermi}})
	if err != nil {
		return "", err
	}
	rKepler, err := (&stitch.PipelinedGPU{}).Run(src, stitch.Options{
		Threads: 4, Devices: []*gpu.Device{kepler}, FFTStreams: 4})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "\nreal runs (reduced scale): Fermi/1 fft stream %v, Kepler/4 fft streams %v; identical results: %v\n",
		rFermi.Elapsed.Round(time.Millisecond), rKepler.Elapsed.Round(time.Millisecond),
		sameDisplacements(rFermi, rKepler))
	return sb.String(), nil
}

func sameDisplacements(a, b *stitch.Result) bool {
	for _, p := range a.Grid.Pairs() {
		da, _ := a.PairDisplacement(p)
		db, _ := b.PairDisplacement(p)
		if da.X != db.X || da.Y != db.Y {
			return false
		}
	}
	return true
}

// runAblationVariants crosses the two §VI.A optimizations on a plate
// whose tile size carries the paper's awkward factors (29 and 13, a
// quarter-scale 1392×1040): spectrum layout × transform size, the exact
// tile size (an estimate-mode planner) against the size a measuring
// planner chooses.
func runAblationVariants(o Options) (string, error) {
	o = o.withDefaults()
	rows, cols, tw, th := 4, 4, 348, 260
	if o.Quick {
		rows, cols, tw, th = 3, 3, 116, 87
	}
	p := imagegen.DefaultParams(rows, cols, tw, th)
	p.Seed = o.Seed
	ds, err := imagegen.Generate(p)
	if err != nil {
		return "", err
	}
	src := &stitch.MemorySource{DS: ds}
	tbl := Table{
		Title:   fmt.Sprintf("FFT layout × transform size ablation (real pipelined-cpu runs, %dx%d tiles of %dx%d)", rows, cols, tw, th),
		Headers: []string{"Layout", "Size", "Transformed at", "Wall", "Identical to baseline"},
	}
	var base *stitch.Result
	for _, v := range []stitch.FFTVariant{stitch.VariantComplex, stitch.VariantReal} {
		for _, mode := range []fft.Mode{fft.Estimate, fft.Measure} {
			opts := stitch.Options{Threads: 4, FFTVariant: v, Planner: fft.NewPlanner(mode)}
			// The first run pays planning; the table times a warm second.
			if _, err := (&stitch.PipelinedCPU{}).Run(src, opts); err != nil {
				return "", err
			}
			res, err := (&stitch.PipelinedCPU{}).Run(src, opts)
			if err != nil {
				return "", err
			}
			layout, size, same := "complex", "exact", "-"
			if v == stitch.VariantReal {
				layout = "real"
			}
			if mode == fft.Measure {
				size = "planned"
			}
			if base == nil {
				base = res
			} else {
				same = fmt.Sprint(sameDisplacements(base, res))
			}
			tbl.Add(layout, size, fmt.Sprintf("%dx%d", res.TransformW, res.TransformH),
				res.Elapsed.Round(time.Millisecond).String(), same)
		}
	}
	return tbl.String(), nil
}

func runBottleneck(o Options) (string, error) {
	g := paperGrid()
	var sb strings.Builder
	for _, cfg := range []struct {
		label string
		spec  machine.RunSpec
	}{
		{"pipelined-gpu, 1 GPU", machine.RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: 1}},
		{"pipelined-gpu, 2 GPUs", machine.RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: 2}},
		{"pipelined-cpu, 16 threads", machine.RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: 16}},
	} {
		mk, stats, err := machine.PredictWithStats(cfg.spec)
		if err != nil {
			return "", err
		}
		tbl := Table{
			Title:   fmt.Sprintf("%s — makespan %.1f s", cfg.label, mk),
			Headers: []string{"Resource", "Busy (s)", "Busy/makespan", "Max queue"},
		}
		for _, st := range stats {
			tbl.Add(st.Name, fmt.Sprintf("%.1f", st.BusySeconds),
				fmt.Sprintf("%.0f%%", 100*st.BusySeconds/mk), st.MaxQueue)
		}
		sb.WriteString(tbl.String() + "\n")
	}
	sb.WriteString("The 2nd GPU's 1.87x (not 2x): the shared disk approaches saturation;\n")
	sb.WriteString("a 3rd or 4th card would buy nothing without faster input I/O.\n")

	// With an output directory, also export the modeled paper-scale
	// Pipelined-GPU schedule as a Chrome trace — the virtual-time Fig 9.
	if o.OutDir != "" {
		if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
			return "", err
		}
		_, spans, err := machine.PredictWithTrace(machine.RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: 2})
		if err != nil {
			return "", err
		}
		path := filepath.Join(o.OutDir, "model_pipelined_gpu_trace.json")
		f, err := os.Create(path)
		if err != nil {
			return "", err
		}
		if err := machine.WriteTrace(f, spans, "pipelined-gpu 2xC2070 42x59"); err != nil {
			f.Close()
			return "", err
		}
		if err := f.Close(); err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "wrote %s (%d task spans, open in Perfetto)\n", path, len(spans))
	}
	return sb.String(), nil
}

func runSolvers(o Options) (string, error) {
	o = o.withDefaults()
	tbl := Table{
		Title:   "Phase-2 solvers under per-edge noise (8x8 grid, truth-derived displacements)",
		Headers: []string{"Noise (px)", "MST RMS", "Least-squares RMS"},
	}
	for _, noise := range []int{0, 1, 2, 4} {
		p := imagegen.DefaultParams(8, 8, 64, 64)
		p.Seed = o.Seed
		ds, err := imagegen.Generate(p)
		if err != nil {
			return "", err
		}
		res := resultFromTruthNoisy(ds, noise, o.Seed+int64(noise))
		mst, err := global.Solve(res, global.Options{})
		if err != nil {
			return "", err
		}
		ls, err := global.SolveLeastSquares(res, global.LSOptions{})
		if err != nil {
			return "", err
		}
		mstRMS, err := global.RMSError(mst, ds.TruthX, ds.TruthY)
		if err != nil {
			return "", err
		}
		lsRMS, err := global.RMSError(ls, ds.TruthX, ds.TruthY)
		if err != nil {
			return "", err
		}
		tbl.Add(noise, fmt.Sprintf("%.2f", mstRMS), fmt.Sprintf("%.2f", lsRMS))
	}
	return tbl.String() + "\nThe over-constrained graph pays off under global optimization: LS averages\nper-edge noise where the tree accumulates it along root paths.\n", nil
}

// runSolverScaling times the phase-2 least-squares engines across plate
// sizes. Gauss-Seidel's stationary sweeps need O(n) iterations on the
// O(√n)-conditioned grid Laplacian, so its cost grows superlinearly; the
// two-level PCG hierarchy holds the iteration count roughly flat. Above
// a size cutoff the GS arm is skipped (it is the multi-minute regime the
// BenchmarkSolvers59k snapshot records once per PR). The warm column
// re-solves after appending one tile row via Resolver.
func runSolverScaling(o Options) (string, error) {
	o = o.withDefaults()
	tbl := Table{
		Title:   "Phase-2 LS engine scaling (synthetic plates, 5-round IRLS, wall time)",
		Headers: []string{"Grid", "Tiles", "GS", "PCG jacobi", "PCG 2-level", "Warm +1 row"},
	}
	sizes := []struct{ rows, cols int }{{16, 16}, {45, 45}, {90, 90}}
	if !o.Quick {
		sizes = append(sizes, struct{ rows, cols int }{250, 235})
	}
	const gsCutoff = 10000 // tiles; beyond this GS is the multi-minute regime
	timeArm := func(res *stitch.Result, opts global.LSOptions) (time.Duration, error) {
		t0 := time.Now()
		_, err := global.SolveLeastSquares(res, opts)
		return time.Since(t0), err
	}
	for _, sz := range sizes {
		res := synthPlateResult(sz.rows, sz.cols, o.Seed)
		n := sz.rows * sz.cols
		gsCell := "(skipped)"
		if n <= gsCutoff {
			d, err := timeArm(res, global.LSOptions{Solver: global.SolverGS})
			if err != nil {
				return "", err
			}
			gsCell = fmt.Sprintf("%.2fs", d.Seconds())
		}
		dj, err := timeArm(res, global.LSOptions{Solver: global.SolverPCG, Precond: global.PrecondJacobi})
		if err != nil {
			return "", err
		}
		d2, err := timeArm(res, global.LSOptions{Solver: global.SolverPCG})
		if err != nil {
			return "", err
		}
		// Warm: cold-solve the plate, append a row, re-solve.
		rs := global.NewResolver(global.LSOptions{Solver: global.SolverPCG})
		if _, err := rs.Solve(res); err != nil {
			return "", err
		}
		grown := synthPlateResult(sz.rows+1, sz.cols, o.Seed)
		t0 := time.Now()
		if _, err := rs.Solve(grown); err != nil {
			return "", err
		}
		dw := time.Since(t0)
		tbl.Add(fmt.Sprintf("%dx%d", sz.rows, sz.cols), n, gsCell,
			fmt.Sprintf("%.2fs", dj.Seconds()), fmt.Sprintf("%.2fs", d2.Seconds()),
			fmt.Sprintf("%.2fs", dw.Seconds()))
	}
	return tbl.String() + "\nThe two-level hierarchy keeps CG iteration counts size-independent, so its\ncolumn grows only with the SpMV cost; GS grows with both. Warm re-solves\ntouch the appended row and its neighborhood, nearly independent of plate size.\n", nil
}

// synthPlateResult fabricates a phase-1 result at arbitrary scale without
// generating images: truth near nominal stage positions, noisy measured
// displacements, and 1% confident outliers for the IRLS rounds to defuse.
// Random draws are keyed to the tile coordinate so a plate grown by a
// row is a strict superset of the smaller one — the warm-resolve arm
// models streaming ingest, not a full re-measurement.
func synthPlateResult(rows, cols int, seed int64) *stitch.Result {
	g := tile.Grid{Rows: rows, Cols: cols, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
	n := g.NumTiles()
	nomW := g.NominalDisplacement(tile.West)
	nomN := g.NominalDisplacement(tile.North)
	coordRNG := func(row, col, salt int) *rand.Rand {
		return rand.New(rand.NewSource(seed + int64(row)*1_000_003 + int64(col)*4 + int64(salt)))
	}
	tx := make([]int, n)
	ty := make([]int, n)
	for i := 0; i < n; i++ {
		c := g.CoordOf(i)
		r := coordRNG(c.Row, c.Col, 0)
		tx[i] = c.Col*nomW.X + r.Intn(7) - 3
		ty[i] = c.Row*nomN.Y + r.Intn(7) - 3
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
		salt := 1
		if p.Dir == tile.North {
			salt = 2
		}
		rng := coordRNG(p.Coord.Row, p.Coord.Col, salt)
		d := tile.Displacement{X: tx[to] - tx[from], Y: ty[to] - ty[from],
			Corr: 0.7 + 0.25*rng.Float64()}
		switch r := rng.Float64(); {
		case r < 0.01:
			d.X += 35
			d.Y -= 20
			d.Corr = 0.97
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
	return res
}

// resultFromTruthNoisy fabricates a phase-1 result from ground truth with
// uniform +-noise on every displacement.
func resultFromTruthNoisy(ds *imagegen.Dataset, noise int, seed int64) *stitch.Result {
	g := ds.Params.Grid
	rng := rand.New(rand.NewSource(seed))
	res := &stitch.Result{Grid: g,
		West:  make([]tile.Displacement, g.NumTiles()),
		North: make([]tile.Displacement, g.NumTiles())}
	for i := range res.West {
		res.West[i].Corr = math.NaN()
		res.North[i].Corr = math.NaN()
	}
	for _, p := range g.Pairs() {
		d := ds.TrueDisplacement(p)
		if noise > 0 {
			d.X += rng.Intn(2*noise+1) - noise
			d.Y += rng.Intn(2*noise+1) - noise
		}
		d.Corr = 0.9
		i := g.Index(p.Coord)
		if p.Dir == tile.West {
			res.West[i] = d
		} else {
			res.North[i] = d
		}
	}
	return res
}

func runAblationSockets(o Options) (string, error) {
	o = o.withDefaults()
	g := paperGrid()
	tbl := Table{
		Title:   "Per-socket CPU pipelines (model, paper scale, 16 threads)",
		Headers: []string{"Sockets", "Time (s)"},
	}
	for _, sockets := range []int{1, 2} {
		s, err := machine.Predict(machine.RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: 16, Sockets: sockets})
		if err != nil {
			return "", err
		}
		tbl.Add(sockets, fmt.Sprintf("%.1f", s))
	}
	var sb strings.Builder
	sb.WriteString(tbl.String())

	// Real runs: correctness and the redundant boundary-row count.
	src, _, err := realDataset(o)
	if err != nil {
		return "", err
	}
	single, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 4})
	if err != nil {
		return "", err
	}
	socketed, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 4, Sockets: 2})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "\nreal runs (reduced scale): 1 socket %v (%d transforms), 2 sockets %v (%d transforms, one redundant boundary row); identical results: %v\n",
		single.Elapsed.Round(time.Millisecond), single.TransformsComputed,
		socketed.Elapsed.Round(time.Millisecond), socketed.TransformsComputed,
		sameDisplacements(single, socketed))
	return sb.String(), nil
}

func runDrift(o Options) (string, error) {
	o = o.withDefaults()
	tbl := Table{
		Title:   "Thermal drift (1.5 px/row over 8 rows): constant vs linear stage models",
		Headers: []string{"Stage model", "Predictions in bound", "Placement RMS (px)"},
	}
	for _, linear := range []bool{false, true} {
		p := imagegen.DefaultParams(8, 4, 128, 96)
		p.Seed = o.Seed
		p.ThermalDrift = 1.5
		ds, err := imagegen.Generate(p)
		if err != nil {
			return "", err
		}
		src := &stitch.MemorySource{DS: ds}
		res, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 4})
		if err != nil {
			return "", err
		}
		// The refinement pass always fits the linear model now; emulate
		// the constant model by corrupting nothing and comparing the
		// model predictions directly instead.
		sm := global.FitStageModel(res, 0.5)
		good := 0
		total := 0
		for _, pr := range p.Grid.Pairs() {
			want := ds.TrueDisplacement(pr)
			var pred tile.Displacement
			if linear {
				pred = sm.Predict(pr)
			} else {
				// Constant model: the fit's intercept at the grid
				// center, i.e. a plain median.
				centered := global.StageModel{
					WestX:  global.LinearFit{A: sm.WestX.At(p.Grid.Rows/2, p.Grid.Cols/2)},
					WestY:  global.LinearFit{A: sm.WestY.At(p.Grid.Rows/2, p.Grid.Cols/2)},
					NorthX: global.LinearFit{A: sm.NorthX.At(p.Grid.Rows/2, p.Grid.Cols/2)},
					NorthY: global.LinearFit{A: sm.NorthY.At(p.Grid.Rows/2, p.Grid.Cols/2)},
				}
				pred = centered.Predict(pr)
			}
			total++
			// A pair's truth includes ±2·jitter of irreducible noise
			// the stage model cannot predict; judge against that bound.
			bound := 2 * p.MaxJitter
			if absInt(pred.X-want.X) <= bound && absInt(pred.Y-want.Y) <= bound {
				good++
			}
		}
		if _, err := global.RefineResult(res, src, global.RefineOptions{}); err != nil {
			return "", err
		}
		pl, err := global.Solve(res, global.Options{RepairOutliers: true})
		if err != nil {
			return "", err
		}
		rms, err := global.RMSError(pl, ds.TruthX, ds.TruthY)
		if err != nil {
			return "", err
		}
		name := "constant (median)"
		if linear {
			name = "linear (row/col fit)"
		}
		tbl.Add(name, fmt.Sprintf("%d/%d within ±2·jitter", good, total), fmt.Sprintf("%.2f", rms))
	}
	return tbl.String() + "\nThe drifting stage breaks the constant model's predictions at the grid\nedges; the linear fit tracks it (and seeds the CCF repair pass).\n", nil
}

func runIOOverlap(o Options) (string, error) {
	o = o.withDefaults()
	rows, cols, tw, th := o.realGridSize()
	p := imagegen.DefaultParams(rows, cols, tw, th)
	p.Seed = o.Seed
	ds, err := imagegen.Generate(p)
	if err != nil {
		return "", err
	}
	tbl := Table{
		Title:   "I/O-latency hiding (REAL wall times on this host, any core count)",
		Headers: []string{"Per-tile read latency", "Simple-CPU", "Pipelined-CPU", "Hidden"},
	}
	for _, delay := range []time.Duration{0, 2 * time.Millisecond, 5 * time.Millisecond} {
		src := &stitch.MemorySource{DS: ds, ReadDelay: delay}
		simple, err := (&stitch.SimpleCPU{}).Run(src, stitch.Options{})
		if err != nil {
			return "", err
		}
		piped, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 2, ReadThreads: 2})
		if err != nil {
			return "", err
		}
		hidden := "-"
		if delay > 0 {
			ioTotal := time.Duration(p.Grid.NumTiles()) * delay
			frac := float64(simple.Elapsed-piped.Elapsed) / float64(ioTotal)
			if frac > 1 {
				frac = 1
			}
			if frac < 0 {
				frac = 0
			}
			hidden = fmt.Sprintf("%.0f%% of %v", 100*frac, ioTotal)
		}
		tbl.Add(delay.String(), simple.Elapsed.Round(time.Millisecond).String(),
			piped.Elapsed.Round(time.Millisecond).String(), hidden)
	}
	return tbl.String() + "\nThe sequential implementation pays every read in full; the pipeline's\nreader stage overlaps reads with FFT/displacement compute — the paper's\ncentral mechanism, visible in real wall time even on one core because\nI/O waits do not occupy the CPU.\n", nil
}

func runQueues(o Options) (string, error) {
	o = o.withDefaults()
	src, _, err := realDataset(o)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, qcap := range []int{2, 8, 32} {
		res, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 4, QueueCap: qcap})
		if err != nil {
			return "", err
		}
		tbl := Table{
			Title:   fmt.Sprintf("Pipelined-CPU queue stats, QueueCap=%d (wall %v)", qcap, res.Elapsed.Round(time.Millisecond)),
			Headers: []string{"Queue", "Cap", "Pushes", "Max depth"},
		}
		for _, qs := range res.QueueStats {
			tbl.Add(qs.Name, qs.Cap, qs.Pushes, qs.MaxDepth)
		}
		sb.WriteString(tbl.String() + "\n")
	}
	sb.WriteString("Bounded queues are the memory contract: tighter caps mean earlier\nbackpressure on the reader, never unbounded buffering (the paper's\nmonitor queues exist for exactly this).\n")
	return sb.String(), nil
}

// runSensitivity perturbs each calibrated cost ±25% and checks whether
// the paper's Table II ordering survives — the model's conclusions must
// not hinge on the exact calibration constants.
func runSensitivity(o Options) (string, error) {
	g := paperGrid()
	order := func(costs machine.CostModel) ([]float64, error) {
		specs := []machine.RunSpec{
			{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: 2, Costs: costs},
			{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: 1, Costs: costs},
			{Impl: "pipelined-cpu", Grid: g, Threads: 16, Costs: costs},
			{Impl: "mt-cpu", Grid: g, Threads: 16, Costs: costs},
			{Impl: "simple-gpu", Grid: g, GPUs: 1, Costs: costs},
			{Impl: "simple-cpu", Grid: g, Costs: costs},
			{Impl: "fiji", Grid: g, Costs: costs},
		}
		times := make([]float64, len(specs))
		for i, spec := range specs {
			t, err := machine.Predict(spec)
			if err != nil {
				return nil, err
			}
			times[i] = t
		}
		return times, nil
	}
	monotone := func(ts []float64) bool {
		for i := 1; i < len(ts); i++ {
			if ts[i] <= ts[i-1] {
				return false
			}
		}
		return true
	}
	tbl := Table{
		Title:   "Calibration sensitivity: Table II ordering under ±25% cost perturbations",
		Headers: []string{"Perturbed cost", "-25% ordering holds", "+25% ordering holds"},
	}
	perturb := []struct {
		name  string
		apply func(*machine.CostModel, float64)
	}{
		{"Read", func(c *machine.CostModel, f float64) { c.Read *= f }},
		{"FFTCPU", func(c *machine.CostModel, f float64) { c.FFTCPU *= f }},
		{"FFTGPU", func(c *machine.CostModel, f float64) { c.FFTGPU *= f }},
		{"NCCGPU+MaxGPU", func(c *machine.CostModel, f float64) { c.NCCGPU *= f; c.MaxGPU *= f }},
		{"CCF", func(c *machine.CostModel, f float64) { c.CCF *= f }},
		{"SyncOverhead", func(c *machine.CostModel, f float64) { c.SyncOverhead *= f }},
		{"H2D", func(c *machine.CostModel, f float64) { c.H2D *= f }},
	}
	for _, pt := range perturb {
		row := []interface{}{pt.name}
		for _, f := range []float64{0.75, 1.25} {
			costs := machine.PaperCosts()
			pt.apply(&costs, f)
			ts, err := order(costs)
			if err != nil {
				return "", err
			}
			row = append(row, fmt.Sprintf("%v", monotone(ts)))
		}
		tbl.Add(row...)
	}
	return tbl.String() + "\nThe only orderings that can flip are Simple-CPU vs Simple-GPU — the two\nrows the paper itself measures within 12% of each other (10.6 vs 9.3 min).\nEvery headline conclusion (pipelined ≫ simple, GPU pipeline ≫ CPU\npipeline ≫ Fiji) survives every ±25% perturbation.\n", nil
}

// runScale predicts end-to-end times for the grids the paper's
// introduction motivates: the 18×22 five-day experiment (two channels
// per scan, 161 scans) up to "grids with thousands of tiles" and the
// 10,000-tile ceiling.
func runScale(o Options) (string, error) {
	tbl := Table{
		Title:   "Scaling (model, paper host): end-to-end per grid size",
		Headers: []string{"Grid", "Tiles", "Pipelined-CPU 16T", "Pipelined-GPU 2×", "Within 45 min scan period"},
	}
	grids := []struct {
		rows, cols int
		note       string
	}{
		{18, 22, ""}, {42, 59, ""}, {70, 72, ""}, {100, 100, ""},
	}
	for _, gr := range grids {
		g := tile.Grid{Rows: gr.rows, Cols: gr.cols, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
		cpu, err := machine.Predict(machine.RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: 16})
		if err != nil {
			return "", err
		}
		gpu2, err := machine.Predict(machine.RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: 2})
		if err != nil {
			return "", err
		}
		ok := "yes"
		if gpu2 > 45*60 {
			ok = "NO"
		}
		tbl.Add(fmt.Sprintf("%dx%d", gr.rows, gr.cols), g.NumTiles(), fmtDur(cpu), fmtDur(gpu2), ok)
	}
	return tbl.String() + "\nEven the 10,000-tile ceiling the introduction cites stays well inside a\nscan period on two 2010-era GPUs: the steerability requirement holds at\nevery scale the paper contemplates.\n", nil
}

// seekBuf is an in-memory io.WriteSeeker for the sharded pyramid writer.
type seekBuf struct {
	buf []byte
	pos int64
}

func (s *seekBuf) Write(p []byte) (int, error) {
	if need := s.pos + int64(len(p)); need > int64(len(s.buf)) {
		grown := make([]byte, need)
		copy(grown, s.buf)
		s.buf = grown
	}
	copy(s.buf[s.pos:], p)
	s.pos += int64(len(p))
	return len(p), nil
}

func (s *seekBuf) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case 0:
		s.pos = off
	case 1:
		s.pos += off
	case 2:
		s.pos = int64(len(s.buf)) + off
	}
	return s.pos, nil
}

// runServe is the production tail of the pipeline: compose the plate
// out-of-core under a deliberately tight memory budget, then put the
// resulting pyramid behind the tile server and load-test it with
// concurrent HTTP clients.
func runServe(o Options) (string, error) {
	o = o.withDefaults()
	src, _, err := realDataset(o)
	if err != nil {
		return "", err
	}
	res, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 4})
	if err != nil {
		return "", err
	}
	pl, err := global.Solve(res, global.Options{RepairOutliers: true})
	if err != nil {
		return "", err
	}
	plateW, plateH := pl.Bounds()

	// Budget a quarter of what the in-memory linear blend would need, so
	// the sharded path genuinely runs banded.
	budget := int64(16*plateW*plateH) / 4
	gov := memgov.New(budget, 0)
	var sb seekBuf
	t0 := time.Now()
	if err := compose.ComposeSharded(pl, src, &sb, compose.ShardedOpts{
		Blend: compose.BlendLinear, TileW: 64, TileH: 64, Gov: gov,
	}); err != nil {
		return "", err
	}
	composeWall := time.Since(t0)
	_, peak, _, _ := gov.Stats()

	pyr, err := tiffio.OpenPyramid(bytes.NewReader(sb.buf))
	if err != nil {
		return "", err
	}
	srv := tileserve.New(pyr, tileserve.Options{CacheBytes: 8 << 20})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	clients := 32
	perClient := 40
	if o.Quick {
		clients, perClient = 8, 20
	}
	tr := &http.Transport{MaxIdleConns: clients * 2, MaxIdleConnsPerHost: clients * 2}
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	lv0 := pyr.Level(0)
	coarse := pyr.NumLevels() - 1
	lat := make([][]float64, clients)
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.Seed + int64(c)))
			for i := 0; i < perClient; i++ {
				// Hot/cold mix: every 4th request is the coarsest
				// overview tile (what every viewer session fetches
				// first); the rest are random level-0 tiles.
				url := fmt.Sprintf("%s/tile/%d/0/0", ts.URL, coarse)
				if i%4 != 0 {
					url = fmt.Sprintf("%s/tile/0/%d/%d", ts.URL, rng.Intn(lv0.Across), rng.Intn(lv0.Down))
				}
				r0 := time.Now()
				resp, err := client.Get(url)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lat[c] = append(lat[c], float64(time.Since(r0).Microseconds())/1000)
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return "", firstErr
	}
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Float64s(all)
	pct := func(p float64) float64 { return all[int(p*float64(len(all)-1))] }
	hits, misses, evictions, cacheBytes := srv.CacheStats()

	tbl := Table{
		Title:   fmt.Sprintf("Tile-server load test (real): %d clients × %d requests over a %dx%d plate", clients, perClient, plateW, plateH),
		Headers: []string{"Metric", "Value"},
	}
	tbl.Add("sharded compose wall", composeWall.Round(time.Millisecond).String())
	tbl.Add("compose peak bytes / budget", fmt.Sprintf("%d / %d", peak, budget))
	tbl.Add("pyramid levels", pyr.NumLevels())
	tbl.Add("pyramid file bytes", len(sb.buf))
	tbl.Add("requests served", len(all))
	tbl.Add("latency p50 (ms)", fmt.Sprintf("%.2f", pct(0.50)))
	tbl.Add("latency p95 (ms)", fmt.Sprintf("%.2f", pct(0.95)))
	tbl.Add("latency p99 (ms)", fmt.Sprintf("%.2f", pct(0.99)))
	tbl.Add("cache hits / misses / evictions", fmt.Sprintf("%d / %d / %d", hits, misses, evictions))
	tbl.Add("cache resident bytes", cacheBytes)
	if err := writeCSV(o, "serve_load", &tbl); err != nil {
		return "", err
	}
	return tbl.String() + "\nThe hot overview tile is served from cache after its first decode; the\ncold level-0 sweep keeps the content-addressed LRU churning. A plate\ncomposed under 1/4 of its in-memory accumulator footprint serves\ninteractive-grade latencies without ever materializing level 0.\n", nil
}

// writeCSV saves a table as a CSV artifact when an output directory is
// configured; failures are returned so experiments surface them.
func writeCSV(o Options, name string, tbl *Table) error {
	if o.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.OutDir, name+".csv"), []byte(tbl.CSV()), 0o644)
}

// --- helpers ---

func timeFFT(n int) (time.Duration, string, error) {
	p, err := fft.NewPlan(n, fft.Forward, fft.PlanOpts{})
	if err != nil {
		return 0, "", err
	}
	buf := make([]complex128, n)
	for i := range buf {
		buf[i] = complex(float64(i%11), 0)
	}
	d := bestOf(5, func() error { return p.Execute(buf) })
	return d, p.Strategy(), nil
}

func bestOf(reps int, fn func() error) time.Duration {
	best := time.Duration(1 << 62)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if fn() != nil {
			return 0
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

func fmtDur(seconds float64) string {
	return time.Duration(seconds * float64(time.Second)).Round(100 * time.Millisecond).String()
}

func intsToStrs(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
