package machine

import (
	"fmt"

	"hybridstitch/internal/tile"
)

// RunSpec describes one modeled stitching run.
type RunSpec struct {
	Impl       string // stitch implementation registry name
	Grid       tile.Grid
	Host       HostConfig
	Costs      CostModel
	Threads    int
	CCFThreads int
	GPUs       int
	// CCFOnGPU moves the cross-correlation-factor step onto the GPU
	// kernel engine (the design alternative the paper rejects): the GPU
	// executes it ~2× faster per op, but it competes with the FFT/NCC
	// kernels for the card, while idle CPU cores go unused.
	CCFOnGPU bool
	// KernelSlots is the per-GPU concurrent-kernel limit: 1 models the
	// Fermi-era cuFFT serialization the paper works around; larger
	// values model Kepler's Hyper-Q (paper §VI.A future work).
	KernelSlots int
	// Sockets models one CPU pipeline per socket (paper §IV.B future
	// work): memory contention halves (each pipeline streams
	// socket-local DRAM) at the cost of one redundant boundary row of
	// reads and transforms per extra socket. Only the pipelined-cpu
	// schedule honours it: stitch.PipelinedCPU is the one executor that
	// splits the plate by socket.
	Sockets int
}

func (s RunSpec) withDefaults() RunSpec {
	if s.Host.PhysicalCores == 0 {
		s.Host = PaperHost()
	}
	if s.Costs.FFTCPU == 0 {
		s.Costs = PaperCosts()
	}
	if s.Threads < 1 {
		s.Threads = 1
	}
	if s.CCFThreads < 1 {
		s.CCFThreads = s.Threads
	}
	if s.GPUs < 1 {
		s.GPUs = 1
	}
	if s.GPUs > s.Host.GPUs {
		s.GPUs = s.Host.GPUs
	}
	if s.KernelSlots < 1 {
		s.KernelSlots = 1
	}
	if s.Costs.FijiThreads < 1 {
		s.Costs.FijiThreads = 5
	}
	return s
}

// Predict returns the modeled end-to-end time in seconds for a run.
func Predict(spec RunSpec) (float64, error) {
	t, _, err := PredictWithStats(spec)
	return t, err
}

// ResourceStat summarizes one station's load during a modeled run.
type ResourceStat struct {
	Name        string
	BusySeconds float64
	MaxQueue    int
}

// PredictWithStats additionally reports per-resource busy time and
// backlog — the bottleneck analysis behind e.g. why a second GPU yields
// 1.87× rather than 2× (the shared disk saturates).
func PredictWithStats(spec RunSpec) (float64, []ResourceStat, error) {
	m, resources, err := build(spec)
	if err != nil {
		return 0, nil, err
	}
	makespan, err := m.Run()
	if err != nil {
		return 0, nil, err
	}
	stats := make([]ResourceStat, 0, len(resources))
	for _, r := range resources {
		stats = append(stats, ResourceStat{Name: r.Name(), BusySeconds: r.Utilization(), MaxQueue: r.MaxQueue()})
	}
	return makespan, stats, nil
}

// PredictWithTrace runs the model with schedule recording and returns
// the makespan together with the executed task spans.
func PredictWithTrace(spec RunSpec) (float64, []TraceSpan, error) {
	m, _, err := build(spec)
	if err != nil {
		return 0, nil, err
	}
	m.EnableTrace()
	makespan, err := m.Run()
	if err != nil {
		return 0, nil, err
	}
	return makespan, m.Trace(), nil
}

// A schedule is one implementation's task graph stated as data. The six
// implementations run the same operators; they differ only in the
// stations the operators run on, in whether a tile's transform is kept
// for its pairs, and in how the plate is split.
type schedule struct {
	stations []station
	tile     []step // every tile's chain
	pair     []step // every pair's chain, after both tiles' chains
	// ccfOnGPU replaces pair under RunSpec.CCFOnGPU; nil when the
	// schedule has no such variant.
	ccfOnGPU []step
	// reuse computes each tile's chain once for all its pairs; without
	// it every pair re-runs both tiles' chains (Fiji re-reads and
	// re-transforms per pair).
	reuse bool
	// serial schedules run every step on one thread in program order,
	// all tiles then all pairs, so pairs need no dependency edges.
	serial bool
	// banded splits the plate into one row band per GPU (tile.SplitRows),
	// each on its own per-device stations, reading its own rows plus the
	// boundary row above; the bands' reads interleave round-robin on the
	// shared stations, as the concurrent per-pipeline readers do.
	banded bool
	// sockets honours RunSpec.Sockets: one pipeline per socket halves
	// the cross-socket share of memory contention, and the per-socket
	// row split's boundary rows are read and transformed twice.
	sockets bool
}

// station is one k-server resource of a schedule.
type station struct {
	name string
	// perDevice stations exist once per GPU, named gpu<d>-<name>.
	perDevice bool
	cap       func(RunSpec) int
}

// step is one task of a chain: its service time and its station.
type step struct {
	name    string
	station string
	cost    func(prices) float64
}

// prices are one run's step costs: the op costs scaled to the grid and
// host, with the CPU slowdowns the worker counts imply.
type prices struct {
	OpCosts
	slow    float64 // CPU compute workers: contention and hyper-threading
	ccfSlow float64 // the CCF worker pool
}

// mtImbalance is the static-partition penalty the dynamic pipeline
// removes.
const mtImbalance = 1.12

func single(RunSpec) int { return 1 }

var (
	disk = station{name: "disk", cap: single}
	read = step{"read", "disk", func(p prices) float64 { return p.Read }}
)

// cpuPipeline is the CPU task graph MT-CPU and Pipelined-CPU share:
// reads on a serial disk, transforms and pair computations on T workers.
// imbalance multiplies the compute costs: MT-CPU's static partition
// penalty, which the dynamic pipeline removes. sockets is true only for
// Pipelined-CPU, the one implementation whose Run splits the plate per
// socket (stitch.Options.Sockets).
func cpuPipeline(imbalance float64, sockets bool) schedule {
	slow := func(p prices) float64 { return p.slow * imbalance }
	return schedule{
		stations: []station{disk, {name: "cpu", cap: func(s RunSpec) int { return s.Threads }}},
		tile:     []step{read, {"fft", "cpu", func(p prices) float64 { return p.FFTCPU * slow(p) }}},
		pair: []step{{"pair", "cpu", func(p prices) float64 {
			return (p.NCCCPU + p.FFTCPU + p.MaxCPU + p.CCF) * slow(p)
		}}},
		reuse: true, sockets: sockets,
	}
}

// schedules holds one row per stitch implementation, keyed by its
// registry name.
var schedules = map[string]schedule{
	// Simple-CPU chains every operation on a single core.
	"simple-cpu": {
		stations: []station{{name: "cpu", cap: single}},
		tile:     []step{{"read+fft", "cpu", func(p prices) float64 { return p.Read + p.FFTCPU }}},
		pair: []step{{"pair", "cpu", func(p prices) float64 {
			return p.NCCCPU + p.FFTCPU + p.MaxCPU + p.CCF
		}}},
		reuse: true, serial: true,
	},
	"mt-cpu":        cpuPipeline(mtImbalance, false),
	"pipelined-cpu": cpuPipeline(1, true),
	// Simple-GPU runs every operation on one CPU thread with synchronous
	// GPU dispatch: each device call pays the launch+synchronize overhead
	// that the profiler gaps of Fig 7 expose.
	"simple-gpu": {
		stations: []station{{name: "host-thread", cap: single}},
		tile: []step{{"tile", "host-thread", func(p prices) float64 {
			return p.Read + (p.H2D + p.SyncOverhead) + (p.FFTGPU + p.SyncOverhead)
		}}},
		pair: []step{{"pair", "host-thread", func(p prices) float64 {
			ov := p.SyncOverhead
			return (p.NCCGPU + ov) + (p.FFTGPU + ov) + (p.MaxGPU + ov) + (p.D2H + ov) + p.CCF
		}}},
		reuse: true, serial: true,
	},
	// Pipelined-GPU is the Fig 8 task graph: per GPU a copy engine and a
	// kernel engine fed by a shared disk, pair kernels gated on both
	// transforms, CCF on a shared CPU worker pool.
	"pipelined-gpu": {
		stations: []station{
			disk,
			{name: "ccf", cap: func(s RunSpec) int { return s.CCFThreads }},
			{name: "copy", perDevice: true, cap: single},
			{name: "kernel", perDevice: true, cap: func(s RunSpec) int { return s.KernelSlots }},
		},
		tile: []step{read, h2d, {"fft", "kernel", func(p prices) float64 { return p.FFTGPU }}},
		pair: []step{pairKernels, d2h, {"ccf", "ccf", func(p prices) float64 { return p.CCF * p.ccfSlow }}},
		// The GPU runs the CCF ~2× faster per op, but it competes with
		// the FFT/NCC kernels for the card while CPU cores sit idle.
		ccfOnGPU: []step{pairKernels, {"ccf-kernel", "kernel", func(p prices) float64 { return p.CCF * 0.5 }}, d2h},
		reuse:    true, banded: true,
	},
	// Fiji is the plugin: a small thread pool of per-pair jobs, each
	// re-reading both tiles and re-transforming them, with the calibrated
	// runtime factor on compute.
	"fiji": {
		stations: []station{disk, {name: "java-pool", cap: func(s RunSpec) int { return s.Costs.FijiThreads }}},
		tile:     []step{read},
		pair: []step{{"pair", "java-pool", func(p prices) float64 {
			return (2*p.FFTCPU + p.NCCCPU + p.FFTCPU + p.MaxCPU + p.CCF) * p.FijiFactor
		}}},
	},
}

var (
	h2d         = step{"h2d", "copy", func(p prices) float64 { return p.H2D }}
	d2h         = step{"d2h", "copy", func(p prices) float64 { return p.D2H }}
	pairKernels = step{"pair-kernels", "kernel", func(p prices) float64 { return p.NCCGPU + p.FFTGPU + p.MaxGPU }}
)

// build turns spec's schedule into a task graph and lists its stations
// in report order: shared stations, then each GPU's.
func build(spec RunSpec) (*Model, []*Resource, error) {
	spec = spec.withDefaults()
	if err := spec.Grid.Validate(); err != nil {
		return nil, nil, err
	}
	sc, ok := schedules[spec.Impl]
	if !ok {
		return nil, nil, fmt.Errorf("machine: unknown implementation %q", spec.Impl)
	}
	if sc.banded && spec.GPUs < 1 {
		return nil, nil, fmt.Errorf("machine: %s needs a GPU and the host has none", spec.Impl)
	}
	g, host := spec.Grid, spec.Host
	redundant := 0 // tile chains of the per-socket split's boundary rows
	if sc.sockets && spec.Sockets > 1 {
		host.MemContention += (1 - host.MemContention) * 0.5
		redundant = (len(tile.SplitRows(g.Rows, spec.Sockets)) - 1) * g.Cols
	}
	p := prices{
		OpCosts: spec.Costs.ForHost(g, spec.Host),
		slow:    cpuSlowdown(host, spec.Threads),
		ccfSlow: cpuSlowdown(host, spec.CCFThreads),
	}

	m := NewModel()
	var resources []*Resource
	on := make([]map[string]*Resource, max(spec.GPUs, 1)) // device → station name → resource
	for d := range on {
		on[d] = map[string]*Resource{}
	}
	for _, st := range sc.stations {
		if !st.perDevice {
			r := NewResource(m.Sim, st.name, st.cap(spec))
			resources = append(resources, r)
			for d := range on {
				on[d][st.name] = r
			}
		}
	}
	for d := range on {
		for _, st := range sc.stations {
			if st.perDevice {
				on[d][st.name] = NewResource(m.Sim, fmt.Sprintf("gpu%d-%s", d, st.name), st.cap(spec))
				resources = append(resources, on[d][st.name])
			}
		}
	}
	// chain adds steps in sequence on device d's stations, the first
	// after deps, and returns the last.
	chain := func(d int, steps []step, deps ...*Task) *Task {
		for _, s := range steps {
			deps = []*Task{m.AddTask(&Task{Name: s.name, Dur: s.cost(p), Res: on[d][s.station]}, deps...)}
		}
		return deps[0]
	}

	bands := tile.SplitRows(g.Rows, 1)
	if sc.banded {
		bands = tile.SplitRows(g.Rows, spec.GPUs)
	}
	done := make([][]*Task, len(bands)) // band → tile index → last tile step
	if sc.reuse {
		for d := range done {
			done[d] = make([]*Task, g.NumTiles())
		}
		// Each band reads its rows in row order; the bands take turns.
		for k, more := 0, true; more; k++ {
			more = false
			for d, b := range bands {
				if c := (tile.Coord{Row: b.Need + k/g.Cols, Col: k % g.Cols}); c.Row < b.Hi {
					done[d][g.Index(c)] = chain(d, sc.tile)
					more = true
				}
			}
		}
		for i := 0; i < redundant; i++ {
			chain(0, sc.tile)
		}
	}
	pair := sc.pair
	if spec.CCFOnGPU && sc.ccfOnGPU != nil {
		pair = sc.ccfOnGPU
	}
	for d, b := range bands {
		for _, pr := range b.Pairs(g) {
			var deps []*Task
			switch {
			case !sc.reuse:
				deps = []*Task{chain(d, sc.tile), chain(d, sc.tile)}
			case !sc.serial:
				deps = []*Task{done[d][g.Index(pr.Neighbor())], done[d][g.Index(pr.Coord)]}
			}
			chain(d, pair, deps...)
		}
	}
	return m, resources, nil
}

// PredictFFTWorkload models the Fig 5 experiment: read every tile and
// compute its transform WITHOUT releasing memory, on `threads` workers
// and a host with limited RAM. Once the resident transform set exceeds
// usable RAM, compute tasks pay a paging penalty that grows with the
// overcommit fraction and with the number of threads thrashing the
// paging subsystem concurrently.
func PredictFFTWorkload(g tile.Grid, host HostConfig, costs CostModel, threads int) (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if threads < 1 {
		threads = 1
	}
	c := costs.For(g)
	slow := cpuSlowdown(host, threads)
	m := NewModel()
	disk := NewResource(m.Sim, "disk", 1)
	cpu := NewResource(m.Sim, "cpu", threads)

	var resident int64
	tb := transformBytes(g)
	for i := 0; i < g.NumTiles(); i++ {
		read := m.AddTask(&Task{Name: "read", Dur: c.Read, Res: disk})
		m.AddTask(&Task{
			Name: "fft",
			Res:  cpu,
			DurFn: func() float64 {
				d := c.FFTCPU * slow
				if resident > host.UsableRAMBytes {
					// Thrashing: once the working set spills, every
					// transform streams through the paging subsystem,
					// and concurrent threads amplify the eviction storm
					// — the binary cliff of Fig 5.
					d *= 1 + host.PagePenalty*float64(threads)
				}
				return d
			},
			OnDone: func() { resident += tb },
		}, read)
	}
	return m.Run()
}

// FFTWorkloadSpeedup returns the Fig 5 z-value: the 1-thread time over
// the T-thread time for the same tile count (both subject to paging).
func FFTWorkloadSpeedup(g tile.Grid, host HostConfig, costs CostModel, threads int) (float64, error) {
	t1, err := PredictFFTWorkload(g, host, costs, 1)
	if err != nil {
		return 0, err
	}
	tn, err := PredictFFTWorkload(g, host, costs, threads)
	if err != nil {
		return 0, err
	}
	return t1 / tn, nil
}
