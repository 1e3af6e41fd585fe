package stitch

import (
	"fmt"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/pciam"
	"hybridstitch/internal/tile"
)

// This file is the stitch layer's span/metric taxonomy (DESIGN.md §10).
// Semantic counters — equal across all five variants for the same input
// — are distinguished from timing metrics, which legitimately differ:
// TestDifferentialSemanticCounters in obs_test.go pins the former.

// Semantic counter names, re-exported from the central registry in
// internal/obs/names.go (DESIGN.md §10). CounterPairsAligned,
// CounterRetries, CounterDegradedTiles, and CounterDegradedPairs are
// variant-invariant; CounterTilesRead and CounterTransforms additionally
// depend on the device partitioning (Pipelined-GPU re-reads boundary
// rows per device band) so they are invariant only at fixed
// partitioning.
const (
	CounterTilesRead     = obs.CounterTilesRead
	CounterTransforms    = obs.CounterTransforms
	CounterPairsAligned  = obs.CounterPairsAligned
	CounterRetries       = obs.CounterRetries
	CounterDegradedTiles = obs.CounterDegradedTiles
	CounterDegradedPairs = obs.CounterDegradedPairs
)

// tileAttr renders a tile-coordinate span attribute.
func tileAttr(c tile.Coord) obs.Attr {
	return obs.String("tile", detail(c))
}

// pairAttr renders a tile-pair span attribute.
func pairAttr(p tile.Pair) obs.Attr {
	return obs.String("pair", p.Dir.String()+"_"+detail(p.Coord))
}

// runBaselines snapshots the process-wide hot-path counters at run start
// so publishRun can publish this run's deltas: fft and pciam deliberately
// do not import obs, exposing package atomics instead, and the stitch
// layer bridges them into the recorder here.
type runBaselines struct {
	transposeBlocks int64
	arenaReuse      int64
	autoSerial      int64
	autoSplit       int64
}

// startRun opens the per-run root span on the "run" track, tagged with
// the transform size pw×ph the run uses. Nil-safe.
func startRun(opts Options, impl string, g tile.Grid, pw, ph int) (*obs.Span, runBaselines) {
	attrs := []obs.Attr{
		obs.String("impl", impl),
		obs.String("grid", fmt.Sprintf("%dx%d", g.Rows, g.Cols)),
		obs.String("size", fmt.Sprintf("%dx%d", pw, ph)),
	}
	base := runBaselines{
		transposeBlocks: fft.TransposeBlocks(),
		arenaReuse:      pciam.ArenaReuse(),
	}
	base.autoSerial, base.autoSplit = fft.AutotuneCounts()
	return opts.Obs.StartSpan(obs.TrackRun, obs.SpanStitch, attrs...), base
}

// publishRun publishes a finished run's result-level metrics: semantic
// counters derived from the Result (the quantities every variant must
// agree on), peak live transforms, and per-queue depth/pushes.
func publishRun(opts Options, base runBaselines, res *Result) {
	rec := opts.Obs
	if rec == nil {
		return
	}
	// Hot-path deltas. Concurrent runs sharing the process counters can
	// bleed into each other's deltas; the counters are throughput
	// telemetry, not semantic invariants, so that imprecision is accepted
	// (runs in tests and the CLI are sequential).
	rec.Counter(obs.CounterTransposeBlocks).Add(fft.TransposeBlocks() - base.transposeBlocks)
	rec.Counter(obs.CounterArenaReuse).Add(pciam.ArenaReuse() - base.arenaReuse)
	serial, split := fft.AutotuneCounts()
	rec.Counter(obs.CounterFFTAutotuneSerial).Add(serial - base.autoSerial)
	rec.Counter(obs.CounterFFTAutotuneSplit).Add(split - base.autoSplit)
	aligned := 0
	for _, p := range res.Grid.Pairs() {
		if _, ok := res.PairDisplacement(p); ok {
			aligned++
		}
	}
	rec.Counter(CounterPairsAligned).Add(int64(aligned))
	rec.Counter(CounterTransforms).Add(int64(res.TransformsComputed))
	rec.Counter(CounterDegradedTiles).Add(int64(len(res.DegradedTiles)))
	rec.Counter(CounterDegradedPairs).Add(int64(len(res.DegradedPairs)))
	rec.Gauge(obs.GaugeTransformsPeakLive).Set(float64(res.PeakTransformsLive))
	rec.Gauge(obs.GaugeTransformWords).Set(float64(transformWords(res.TransformW, res.TransformH)))
	rec.Gauge(obs.GaugeTransformWidth).Set(float64(res.TransformW))
	rec.Gauge(obs.GaugeTransformHeight).Set(float64(res.TransformH))
	for _, q := range res.QueueStats {
		rec.Gauge(obs.QueuePrefix + q.Name + obs.QueueMaxDepthSuffix).Set(float64(q.MaxDepth))
		rec.Counter(obs.QueuePrefix + q.Name + obs.QueuePushesSuffix).Add(q.Pushes)
	}
}
