// Package stitch is the paper's primary contribution: phase-1 relative
// displacement computation over a grid of overlapping microscope tiles,
// in six interchangeable implementations —
//
//	Simple-CPU     sequential reference (paper §IV.A)
//	MT-CPU         SPMD spatial decomposition across threads
//	Pipelined-CPU  3-stage pipeline: reader → fft/displacement → bookkeeping
//	Simple-GPU     synchronous single-stream GPU port
//	Pipelined-GPU  6-stage pipeline per GPU (paper Fig 8)
//	Fiji           the ImageJ/Fiji-plugin-shaped baseline (batch phases,
//	               no transform reuse)
//
// plus the machinery they share: tile sources, traversal orders, the
// Table I operation census, the per-run pair engine (run.go) that owns
// every read, transform, displacement, retry, casualty and reference
// count plus the pipelines' bookkeeping step, the host aligner and the
// per-GPU operator set (aligner.go — the only code that knows a spectrum
// layout), and the host cache and device residency (cache.go). Each
// implementation file is a scheduler over those — threads, stages,
// queues, streams — so every implementation produces identical
// displacement arrays for the same input; they differ only in
// scheduling, concurrency, and memory behavior.
package stitch

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hybridstitch/internal/fault"
	"hybridstitch/internal/fft"
	"hybridstitch/internal/gpu"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/memgov"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/pciam"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
)

// Source supplies tiles to a stitcher. ReadTile is called once per tile
// per run by the well-behaved implementations (the Fiji baseline calls it
// more often, which is part of what it models). Implementations must be
// safe for concurrent ReadTile calls.
type Source interface {
	Grid() tile.Grid
	ReadTile(c tile.Coord) (*tile.Gray16, error)
}

// MemorySource serves a generated dataset from memory.
type MemorySource struct {
	DS *imagegen.Dataset
	// ReadDelay, if positive, sleeps per ReadTile to model disk/decode
	// latency in pipeline-overlap experiments.
	ReadDelay time.Duration
}

// Grid returns the dataset's grid.
func (m *MemorySource) Grid() tile.Grid { return m.DS.Params.Grid }

// ReadTile returns the tile at c.
func (m *MemorySource) ReadTile(c tile.Coord) (*tile.Gray16, error) {
	if !m.Grid().In(c) {
		return nil, fmt.Errorf("stitch: coordinate %v outside grid", c)
	}
	if m.ReadDelay > 0 {
		time.Sleep(m.ReadDelay)
	}
	return m.DS.Tile(c), nil
}

// DirSource reads tiles from per-tile TIFF files laid out as
// <dir>/tile_r{row}_c{col}.tif (the layout cmd/genplate writes).
type DirSource struct {
	Dir      string
	GridSpec tile.Grid
}

// TilePath returns the canonical file name for a coordinate.
func TilePath(dir string, c tile.Coord) string {
	return filepath.Join(dir, fmt.Sprintf("tile_r%03d_c%03d.tif", c.Row, c.Col))
}

// Grid returns the declared grid.
func (d *DirSource) Grid() tile.Grid { return d.GridSpec }

// ReadTile decodes one tile file. Corrupt files and geometry mismatches
// are marked fault.Permanent: re-reading cannot fix the bytes, so the
// retry layer degrades the tile immediately instead of spinning.
func (d *DirSource) ReadTile(c tile.Coord) (*tile.Gray16, error) {
	img, err := tiffio.ReadFile(TilePath(d.Dir, c))
	if err != nil {
		err = fmt.Errorf("stitch: tile %v: %w", c, err)
		if errors.Is(err, tiffio.ErrCorrupt) {
			err = fault.Permanent(err)
		}
		return nil, err
	}
	g := d.GridSpec
	if img.W != g.TileW || img.H != g.TileH {
		return nil, fault.Permanent(fmt.Errorf("stitch: tile %v is %dx%d, grid declares %dx%d", c, img.W, img.H, g.TileW, g.TileH))
	}
	return img, nil
}

// WriteDataset writes a dataset to dir in DirSource layout, creating the
// directory if needed.
func WriteDataset(dir string, ds *imagegen.Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g := ds.Params.Grid
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			coord := tile.Coord{Row: r, Col: c}
			if err := tiffio.WriteFile(TilePath(dir, coord), ds.Tile(coord)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Options configures a stitching run. The zero value is usable.
type Options struct {
	// Threads is the worker count for the CPU implementations (the
	// paper sweeps 1–16).
	Threads int
	// CCFThreads is the CCF-stage worker count in Pipelined-GPU (the
	// paper's Fig 10 sweep); 0 means Threads.
	CCFThreads int
	// ReadThreads is the reader-stage worker count in the pipelines.
	ReadThreads int
	// NPeaks passes through to pciam.Options.
	NPeaks int
	// Traversal selects the grid walk order for the sequential and GPU
	// implementations; the paper defaults to chained diagonal because it
	// lets transform memory be freed earliest.
	Traversal Traversal
	// Planner supplies FFT wisdom shared across workers — strategies and
	// the transform size; nil builds an estimate-mode planner per run,
	// which transforms at the tile size.
	Planner *fft.Planner
	// Governor, if set, accounts transform memory against a simulated
	// physical RAM limit and injects paging stalls (Fig 5).
	Governor *memgov.Governor
	// Devices are the simulated GPUs for the GPU implementations.
	Devices []*gpu.Device
	// PoolTransforms is the per-GPU buffer pool size in transforms. The
	// paper requires it to exceed the smallest grid dimension; 0 picks
	// 2×min(rows, cols)+4.
	PoolTransforms int
	// QueueCap bounds the inter-stage queues; 0 picks 4× the stage
	// worker count.
	QueueCap int
	// FFTVariant selects the spectrum layout: baseline complex or
	// real-to-complex half spectra (the paper's §VI.A future-work
	// optimization); every implementation supports both. It is read where
	// aligners and device operators are built (aligner.go); schedulers
	// never branch on it. §VI.A's other optimization, padding tiles to a
	// fast transform size, is not selected here: Planner chooses the size
	// for either layout.
	FFTVariant FFTVariant
	// FFTExec selects how each 2-D transform uses the machine: the zero
	// value (auto) lets the plan-time autotuner measure serial vs split
	// per transform size and core budget; "serial" pins the
	// zero-allocation path; "split" pins the recursive intra-transform
	// split. Pair-level and transform-level parallelism draw from ONE
	// worker budget (FFTPool), so split transforms only use cores the
	// pair workers left idle.
	FFTExec fft.ExecStrategy
	// FFTPool overrides the shared transform worker budget (tests and
	// experiments); nil means fft.SharedPool(), sized GOMAXPROCS-1.
	FFTPool *fft.WorkerPool
	// Sockets runs one independent CPU pipeline per (simulated) CPU
	// socket in Pipelined-CPU, each over a row band with its own
	// transform cache — the paper's stated future work for the CPU
	// version (NUMA locality). 0 or 1 keeps the single pipeline.
	Sockets int
	// FFTStreams is the number of CPU threads issuing forward-FFT
	// kernels per GPU in Pipelined-GPU. The paper pins it to 1 (Fermi
	// cuFFT cannot run kernels concurrently); raising it exploits a
	// Kepler/Hyper-Q device (paper §VI.A future work) — pair it with a
	// gpu.Config.KernelSlots > 1.
	FFTStreams int
	// Faults is the fault-injection registry consulted at the stitch
	// layer's error points (sites "stitch.read", "stitch.fft",
	// "pciam.ncc"). Nil — the default — makes every site a single nil
	// check.
	Faults *fault.Injector
	// MaxRetries bounds re-attempts of a failed tile read, transform, or
	// pair displacement before the failure is treated as persistent.
	// Zero means no retries.
	MaxRetries int
	// RetryBackoff is the base delay between retry attempts (doubling,
	// capped at 16×). Zero — the test configuration — never sleeps.
	RetryBackoff time.Duration
	// Degrade switches the pair engine to partial-failure semantics: a
	// persistent per-tile or per-pair error marks that tile/pair degraded
	// instead of aborting the run, and the result lists the casualties.
	// Phase 2 proceeds on the surviving displacement graph. The Fiji
	// baseline reads and aligns outside the engine's fault points and
	// always aborts.
	Degrade bool
	// Obs, if set, records spans and metrics for the run into the shared
	// observability layer: a root "run" span with per-stage and
	// per-tile-pair children, semantic counters (tiles read, transforms,
	// pairs aligned, retries, degraded work), queue-depth gauges, and
	// read/FFT/displace latency histograms. Nil — the default — costs a
	// nil check per site. Pass the same recorder in gpu.Config.Obs to put
	// GPU streams on the same clock.
	Obs *obs.Recorder
}

func (o Options) withDefaults(g tile.Grid) Options {
	if o.Threads < 1 {
		o.Threads = 1
	}
	if o.CCFThreads < 1 {
		o.CCFThreads = o.Threads
	}
	if o.ReadThreads < 1 {
		o.ReadThreads = 1
	}
	if o.FFTStreams < 1 {
		o.FFTStreams = 1
	}
	if o.Planner == nil {
		o.Planner = fft.NewPlanner(fft.Estimate)
	}
	if o.PoolTransforms < 1 {
		o.PoolTransforms = 2*min(g.Rows, g.Cols) + 4
	}
	if o.QueueCap < 1 {
		o.QueueCap = 4 * o.Threads
	}
	return o
}

// pciamOptions builds the per-pair aligner configuration.
func (o Options) pciamOptions() pciam.Options {
	return pciam.Options{
		NPeaks:  o.NPeaks,
		Planner: o.Planner,
		FFTExec: o.FFTExec,
		FFTPool: o.FFTPool,
	}
}

// TransformPool resolves the worker budget pair-level runners reserve
// from: Options.FFTPool when set, else the shared process pool. Exported
// so downstream phases (the phase-2 PCG solver) can draw on the same
// budget instead of oversubscribing alongside it.
func (o Options) TransformPool() *fft.WorkerPool {
	if o.FFTPool != nil {
		return o.FFTPool
	}
	return fft.SharedPool()
}

// reservePairWorkers charges n pair-level workers against the shared
// transform worker budget, so intra-transform splits only fan out onto
// cores the pair loop left idle (one budget, not two: T pair workers +
// per-transform splits must not oversubscribe the machine). The first
// worker is the caller's own goroutine and is free; the reservation is
// best-effort (non-blocking). The returned func releases the tokens and
// must be called when the pair workers exit.
func (o Options) reservePairWorkers(n int) func() {
	if n <= 1 {
		return func() {}
	}
	pool := o.TransformPool()
	got := pool.Reserve(n - 1)
	return func() { pool.Release(got) }
}

// Result is the phase-1 output: the two displacement arrays of the
// paper's Fig 4, plus run metrics.
type Result struct {
	Grid tile.Grid
	// West[i] is the displacement of tile i relative to its west
	// neighbor; valid iff the tile has one (col > 0). North likewise.
	West, North []tile.Displacement
	// TransformW and TransformH are the size every tile was transformed
	// at: the tile size, or the larger frame the planner chose.
	TransformW, TransformH int
	// Elapsed is the end-to-end wall time of the run.
	Elapsed time.Duration
	// PeakTransformsLive is the maximum number of tile transforms
	// simultaneously resident — the memory-management metric the
	// traversal-order ablation reads.
	PeakTransformsLive int
	// TransformsComputed counts forward FFT executions (the Fiji
	// baseline recomputes; the others hit exactly NumTiles).
	TransformsComputed int
	// QueueStats reports, for the pipelined implementations, each
	// inter-stage queue's total pushes and maximum depth — the
	// backpressure picture behind the QueueCap ablation.
	QueueStats []QueueStat
	// DegradedTiles lists tiles whose read or transform failed
	// persistently in a Degrade-mode run, sorted in grid-index order.
	DegradedTiles []DegradedTile
	// DegradedPairs lists pairs without a displacement — either a
	// side tile was degraded or the pair's own computation failed
	// persistently — sorted by coordinate then direction.
	DegradedPairs []DegradedPair
}

// DegradedTile is one tile lost to a persistent failure, with the error
// chain that condemned it.
type DegradedTile struct {
	Coord tile.Coord
	Err   error
}

// DegradedPair is one pair displacement lost to a persistent failure.
type DegradedPair struct {
	Pair tile.Pair
	Err  error
}

// Degraded reports whether the run lost any tiles or pairs.
func (r *Result) Degraded() bool {
	return len(r.DegradedTiles) > 0 || len(r.DegradedPairs) > 0
}

// QueueStat summarizes one inter-stage queue after a run.
type QueueStat struct {
	Name     string
	Cap      int
	Pushes   int64
	MaxDepth int
}

// newResult allocates a result shell for grid g.
func newResult(g tile.Grid) *Result {
	n := g.NumTiles()
	r := &Result{Grid: g, West: make([]tile.Displacement, n), North: make([]tile.Displacement, n)}
	for i := range r.West {
		r.West[i].Corr = math.NaN()
		r.North[i].Corr = math.NaN()
	}
	return r
}

// setPair records a pair's displacement.
func (r *Result) setPair(p tile.Pair, d tile.Displacement) {
	i := r.Grid.Index(p.Coord)
	if p.Dir == tile.West {
		r.West[i] = d
	} else {
		r.North[i] = d
	}
}

// PairDisplacement returns the stored displacement for a pair and whether
// it was computed.
func (r *Result) PairDisplacement(p tile.Pair) (tile.Displacement, bool) {
	i := r.Grid.Index(p.Coord)
	var d tile.Displacement
	if p.Dir == tile.West {
		d = r.West[i]
	} else {
		d = r.North[i]
	}
	return d, !math.IsNaN(d.Corr)
}

// Complete reports whether every pair of the grid has a displacement.
func (r *Result) Complete() bool {
	for _, p := range r.Grid.Pairs() {
		if _, ok := r.PairDisplacement(p); !ok {
			return false
		}
	}
	return true
}

// Stitcher is one implementation of the phase-1 computation.
type Stitcher interface {
	Name() string
	Run(src Source, opts Options) (*Result, error)
}

// Implementations returns the registry of stitchers in the paper's
// Table II order.
func Implementations() []Stitcher {
	return []Stitcher{
		&Fiji{},
		&SimpleCPU{},
		&MTCPU{},
		&PipelinedCPU{},
		&SimpleGPU{},
		&PipelinedGPU{},
	}
}

// ByName finds a stitcher by its registry name.
func ByName(name string) (Stitcher, error) {
	var names []string
	for _, s := range Implementations() {
		if s.Name() == name {
			return s, nil
		}
		names = append(names, s.Name())
	}
	sort.Strings(names)
	return nil, fmt.Errorf("stitch: unknown implementation %q (have %v)", name, names)
}
