package stitch

import (
	"fmt"
	"time"
)

// SeriesRunner stitches successive scans of the same plate geometry —
// the paper's operating mode ("the plate ... is scanned every 45 min",
// 161 scans in the example experiment). The implementation's option set
// is fixed for the series, and the aligners (plans and scratch included)
// come back warm from the pciam pool after the first scan, which is what
// makes the first and the hundred-and-sixty-first scan cost the same.
// Planning itself is by rule, so there is nothing to amortize: the paper
// spent 4 min 20 s on patient planning and saved it as wisdom.
type SeriesRunner struct {
	impl    Stitcher
	opts    Options
	grid    gridKey
	scans   int
	elapsed []time.Duration
}

type gridKey struct {
	rows, cols, tw, th int
}

// NewSeriesRunner prepares a runner for repeated scans under opts.
func NewSeriesRunner(impl Stitcher, opts Options) *SeriesRunner {
	return &SeriesRunner{impl: impl, opts: opts}
}

// RunScan stitches one scan. All scans must share tile geometry (the
// same plate under the same microscope).
func (sr *SeriesRunner) RunScan(src Source) (*Result, error) {
	g := src.Grid()
	key := gridKey{g.Rows, g.Cols, g.TileW, g.TileH}
	if sr.scans == 0 {
		sr.grid = key
	} else if key != sr.grid {
		return nil, fmt.Errorf("stitch: scan geometry %+v differs from the series' %+v", key, sr.grid)
	}
	res, err := sr.impl.Run(src, sr.opts)
	if err != nil {
		return nil, err
	}
	sr.scans++
	sr.elapsed = append(sr.elapsed, res.Elapsed)
	return res, nil
}

// Scans reports how many scans have been stitched.
func (sr *SeriesRunner) Scans() int { return sr.scans }

// Elapsed returns the per-scan wall times.
func (sr *SeriesRunner) Elapsed() []time.Duration {
	return append([]time.Duration(nil), sr.elapsed...)
}

// WithinPeriod reports whether every scan so far completed inside the
// imaging period — the steerability criterion of the paper's
// introduction.
func (sr *SeriesRunner) WithinPeriod(period time.Duration) bool {
	for _, e := range sr.elapsed {
		if e > period {
			return false
		}
	}
	return sr.scans > 0
}
