package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's contract and must equal the lists in ../BENCHMARK.json
// (bench_test.go checks it).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median by which it may worsen
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them, from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"stitch_s", "s", "lower", 0.25},
	{"tiles_within_1px_pct", "%", "higher", 0.01},
	{"solve_s", "s", "lower", 0.25},
	{"resolve_warm_s", "s", "lower", 0.25},
	{"serve_p50_ms", "ms", "lower", 0.25},
	{"serve_p99_ms", "ms", "lower", 0.25},
	{"serve_rps", "req/s", "higher", 0.25},
}

// perLayer are the single-layer metrics of a traced run, never gated.
// The layer is the part of the name before the first dot.
var perLayer = []metricDef{
	{Name: "stitch.phase1_s", Unit: "s", Better: "lower"},
	{Name: "stitch.pairs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "stitch.worker_util_pct", Unit: "%", Better: "higher"},
	{Name: "stitch.peak_transforms_live", Unit: "count", Better: "lower"},
	{Name: "stitch.transforms_computed", Unit: "count", Better: "lower"},
	{Name: "stitch.queue_max_depth", Unit: "count", Better: "lower"},
	{Name: "stitch.impl_s.fiji", Unit: "s", Better: "lower"},
	{Name: "stitch.impl_s.simple-cpu", Unit: "s", Better: "lower"},
	{Name: "stitch.impl_s.mt-cpu", Unit: "s", Better: "lower"},
	{Name: "stitch.impl_s.pipelined-cpu", Unit: "s", Better: "lower"},
	{Name: "stitch.impl_s.simple-gpu", Unit: "s", Better: "lower"},
	{Name: "stitch.impl_s.pipelined-gpu", Unit: "s", Better: "lower"},

	{Name: "tiffio.decode_busy_s", Unit: "s", Better: "lower"},
	{Name: "tiffio.decode_count", Unit: "count", Better: "lower"},
	{Name: "tiffio.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "tiffio.pyramid_write_busy_s", Unit: "s", Better: "lower"},
	{Name: "tiffio.pyramid_bytes", Unit: "B", Better: "lower"},
	{Name: "tiffio.deflate_s", Unit: "s", Better: "lower"},
	{Name: "tiffio.open_pyramid_ms", Unit: "ms", Better: "lower"},
	{Name: "tiffio.inflate_ms_per_tile", Unit: "ms", Better: "lower"},

	{Name: "fft.busy_s", Unit: "s", Better: "lower"},
	{Name: "fft.count", Unit: "count", Better: "lower"},
	{Name: "fft.forward_ms_per_tile", Unit: "ms", Better: "lower"},
	{Name: "fft.gflops_computed", Unit: "GFLOP/s", Better: "higher"},
	{Name: "fft.autotune_split", Unit: "count", Better: "higher"},
	{Name: "fft.autotune_batched", Unit: "count", Better: "higher"},

	{Name: "pciam.displace_busy_s", Unit: "s", Better: "lower"},
	{Name: "pciam.displace_count", Unit: "count", Better: "lower"},
	{Name: "pciam.displace_ms_per_pair", Unit: "ms", Better: "lower"},
	{Name: "pciam.ccf_ms_per_pair", Unit: "ms", Better: "lower"},
	{Name: "pciam.pairs_within_1px_pct", Unit: "%", Better: "higher"},

	{Name: "global.phase2_s", Unit: "s", Better: "lower"},
	{Name: "global.mst_s", Unit: "s", Better: "lower"},
	{Name: "global.ls_rounds", Unit: "count", Better: "lower"},
	{Name: "global.cg_iterations_cold", Unit: "count", Better: "lower"},
	{Name: "global.cg_iterations_warm", Unit: "count", Better: "lower"},
	{Name: "global.residual_px", Unit: "px", Better: "lower"},
	{Name: "global.rms_px", Unit: "px", Better: "lower"},
	{Name: "global.max_err_px", Unit: "px", Better: "lower"},
	{Name: "global.vs_reference_max_px", Unit: "px", Better: "lower"},

	{Name: "compose.phase3_s", Unit: "s", Better: "lower"},
	{Name: "compose.mpix_per_s", Unit: "Mpx/s", Better: "higher"},
	{Name: "compose.bands", Unit: "count", Better: "lower"},
	{Name: "compose.reads_per_tile", Unit: "count", Better: "lower"},
	{Name: "compose.source_read_busy_s", Unit: "s", Better: "lower"},
	{Name: "compose.self_s", Unit: "s", Better: "lower"},
	{Name: "memgov.peak_accounted_mb", Unit: "MB", Better: "lower"},
	{Name: "memgov.faults", Unit: "count", Better: "lower"},

	{Name: "tileserve.hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tileserve.miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tileserve.tile_call_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "tileserve.tile_call_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "tileserve.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "tileserve.cache_hit_pct", Unit: "%", Better: "higher"},
	{Name: "tileserve.evictions", Unit: "count", Better: "lower"},
	{Name: "tileserve.first_tile_ms", Unit: "ms", Better: "lower"},
	{Name: "tileserve.png_kb_per_tile", Unit: "kB", Better: "lower"},

	{Name: "obs.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.spans_dropped", Unit: "count", Better: "lower"},
	{Name: "machine.predicted_phase1_s", Unit: "s", Better: "lower"},
	{Name: "machine.model_err_pct", Unit: "%", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.unattributed_s", Unit: "s", Better: "lower"},
}

// stats summarizes the samples behind one reported number.
type stats struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	IQR    float64 `json:"iqr"`
}

func summarize(xs []float64) stats {
	if len(xs) == 0 {
		return stats{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return stats{N: len(s), Min: s[0], Median: percentile(s, 50), Max: s[len(s)-1], IQR: q3 - q1}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// percentile reads the p-th percentile of sorted by linear interpolation
// between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// quartiles returns the first and third quartile of sorted the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method),
// because that is how the stability criterion computes the spread.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return sorted[0], sorted[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}
