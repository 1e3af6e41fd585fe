package obs

// This file is the central registry of every span, track, and metric
// name the repo records. Telemetry names are an API: the profile
// viewers group by track, the golden span-tree tests match span names,
// the benchmark snapshots key on counter names, and any service surface
// (dashboards, alerts) built on top will hardcode them. A name that
// drifts — "stitch.pair.aligned" in one variant, "stitch.pairs.aligned"
// in another — silently splits one series into two.
//
// The stitchlint `obsnames` analyzer enforces the registry statically:
// every name argument to StartSpan/Child/ChildOn/RecordComplete and to
// Counter/Gauge/Histogram must be (or be prefixed by, for the dynamic
// families) a constant declared in this package. Add the constant here
// first; the literal at the call site is a lint error.

// Track names: the display rows of the Chrome-trace/ASCII timelines.
// Per-device and per-stage tracks ("GPU0/copy/memcpyH2D", "stage/read")
// are composed by the gpu simulator and pipeline from their own
// structure and carry the span name constants below.
const (
	// TrackRun hosts the per-run root span.
	TrackRun = "run"
	// TrackPhase2 and TrackPhase3 host the global-solve and compose
	// phases.
	TrackPhase2 = "phase2"
	TrackPhase3 = "phase3"
	// TrackOpPrefix prefixes the flat per-operation tracks used by
	// callers without a span hierarchy (Fiji's batch workers):
	// "op/read", "op/fft", "op/disp".
	TrackOpPrefix = "op/"
	// TrackStagePrefix prefixes the pipelined variants' per-stage tracks:
	// "stage/read", "stage/work", "stage/bk", "stage/disp0", ...
	TrackStagePrefix = "stage/"
)

// Span names.
const (
	// SpanStitch is the per-run root span on TrackRun.
	SpanStitch = "stitch"
	// SpanSolve and SpanCompose are the phase-2 and phase-3 roots.
	SpanSolve   = "solve"
	SpanCompose = "compose"
	// SpanSolveLS is the phase-2 least-squares solve (IRLS around
	// Gauss-Seidel or PCG), recorded on TrackPhase2 like SpanSolve.
	SpanSolveLS = "solve.ls"
	// SpanPair wraps one pair's full alignment (read through CCF).
	SpanPair = "pair"
	// SpanRead, SpanFFT, and SpanDisp are the instrumented fault-point
	// operations (tile read, forward transform, displacement).
	SpanRead = "read"
	SpanFFT  = "fft"
	SpanDisp = "disp"
	// SpanCCF is the CCF ambiguity-resolution stage.
	SpanCCF = "ccf"
	// SpanWork and SpanBK are the pipelined-CPU stage spans (the fused
	// FFT/displacement worker pool and the bookkeeping stage).
	SpanWork = "work"
	SpanBK   = "bk"
	// SpanUploadFFT is Simple-GPU's combined H2D upload + forward FFT.
	SpanUploadFFT = "upload+fft"
	// SpanComposeSharded is the out-of-core compose root on TrackPhase3;
	// SpanComposeBand wraps one output band (accumulate + reduce + write).
	SpanComposeSharded = "compose.sharded"
	SpanComposeBand    = "compose.band"
)

// Semantic counters: equal across all five variants for the same input
// at fixed device partitioning (the differential tests pin this).
const (
	CounterTilesRead     = "stitch.tiles.read"
	CounterTransforms    = "stitch.transforms"
	CounterPairsAligned  = "stitch.pairs.aligned"
	CounterRetries       = "fault.retries"
	CounterDegradedTiles = "stitch.degraded.tiles"
	CounterDegradedPairs = "stitch.degraded.pairs"
)

// Throughput and success counters.
const (
	CounterFFTOps        = "stitch.fft.ops"
	CounterDispOps       = "stitch.disp.ops"
	CounterEdgesRepaired = "global.edges.repaired"
	CounterEdgesDropped  = "global.edges.dropped"
	// Least-squares solver effort: IRLS rounds executed, Gauss-Seidel
	// sweeps (serial engine), and CG iterations summed over both axes
	// (PCG engine). Exactly one of the two iteration counters is nonzero
	// per solve.
	CounterLSRounds        = "global.ls.rounds"
	CounterLSSweepsGS      = "global.ls.gs.sweeps"
	CounterLSItersCG       = "global.ls.cg.iterations"
	CounterMemgovFaults    = "memgov.faults"
	CounterPipelineNotes   = "pipeline.notes"
	CounterPipelineAborts  = "pipeline.aborts"
	CounterGPULaunchFused  = "gpu.launch.fused"
	CounterTransposeBlocks = "fft.transpose.blocks"
	// The autotune family records plan-time execution-strategy decisions
	// (one per ExecAuto plan construction, cache hits included).
	// CounterFFTAutotuneBatched is a name only: the batched pair-transform
	// path it counted was removed and nothing publishes it, but
	// bench/layers.go reads it (as zero) and bench/ is frozen.
	CounterFFTAutotuneSerial  = "fft.autotune.serial"
	CounterFFTAutotuneSplit   = "fft.autotune.split"
	CounterFFTAutotuneBatched = "fft.autotune.batched"
	CounterArenaReuse         = "pciam.arena.reuse"
	CounterPoolAcquires       = "gpu.pool.acquires"
	CounterPoolWaits          = "gpu.pool.waits"
	// Sharded-compose progress: bands written, and source tiles blended
	// across all bands (tiles straddling a band boundary count once per
	// band — the counter measures re-read amplification, not coverage).
	CounterComposeBands     = "compose.band.count"
	CounterComposeBandTiles = "compose.band.tiles"
	// Sharded-compose pipeline stages, published once per run: pyramid
	// tiles cut, how many of them the composing goroutine deflated itself
	// because every job buffer was in flight (back-pressure: the helpers
	// are the bottleneck when this nears the total), and the time spent
	// inside deflate and inside Source.ReadTile, in nanoseconds summed
	// over goroutines — either can exceed the phase's wall time.
	CounterComposeEncodeTiles       = "compose.encode.tiles"
	CounterComposeEncodeCallerTiles = "compose.encode.caller_tiles"
	CounterComposeEncodeBusyNS      = "compose.encode.busy_ns"
	CounterComposeReadBusyNS        = "compose.read.busy_ns"
	// Tile-server cache behavior: requests served from the decoded-tile
	// LRU, misses that decoded from the pyramid file, entries evicted to
	// stay under the byte budget, and requests rejected with an error.
	CounterServeTileHits      = "serve.tile.hits"
	CounterServeTileMisses    = "serve.tile.misses"
	CounterServeTileEvictions = "serve.tile.evictions"
	CounterServeTileErrors    = "serve.tile.errors"
)

// Gauges.
const (
	GaugeMemgovLiveBytes = "memgov.live_bytes"
	GaugeServeCacheBytes = "serve.tile.cache_bytes"
	// GaugeComposeEncodeQueueDepth is the deepest the pyramid writer's
	// deflate queue got during a sharded compose.
	GaugeComposeEncodeQueueDepth = "compose.encode.queue_depth"
	GaugePoolInUse               = "gpu.pool.in_use"
	GaugeTransformsPeakLive      = "stitch.transforms.peak_live"
	GaugeTransformWords          = "stitch.transform.words"
	// GaugeTransformWidth and GaugeTransformHeight are the size every
	// tile of the run was transformed at: the tile size, or the larger
	// frame the FFT planner chose for it.
	GaugeTransformWidth  = "stitch.transform.width"
	GaugeTransformHeight = "stitch.transform.height"
	// GaugeLSResidualPx is the final max |b − L·p| of the least-squares
	// solve (pixels·weight) — the convergence figure of merit.
	GaugeLSResidualPx = "global.ls.residual_px"
)

// Latency histograms.
const (
	HistMemgovStallSeconds = "memgov.stall.seconds"
	HistReadSeconds        = "stitch.read.seconds"
	HistFFTSeconds         = "stitch.fft.seconds"
	HistDispSeconds        = "stitch.disp.seconds"
	HistServeTileSeconds   = "serve.tile.seconds"
)

// Dynamic-name prefixes and suffixes: families whose full name embeds a
// runtime component (a GPU op name, a queue name). The obsnames
// analyzer requires the leading operand of a composed name to be one of
// these constants.
const (
	// HistGPUOpPrefix prefixes per-op GPU latency histograms:
	// "gpu.op.fft2d", "gpu.op.memcpyH2D", ...
	HistGPUOpPrefix = "gpu.op."
	// QueuePrefix, QueueMaxDepthSuffix, and QueuePushesSuffix compose
	// the per-queue depth/throughput series: "queue.<name>.max_depth",
	// "queue.<name>.pushes".
	QueuePrefix         = "queue."
	QueueMaxDepthSuffix = ".max_depth"
	QueuePushesSuffix   = ".pushes"
)
