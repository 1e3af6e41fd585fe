package stitch

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hybridstitch/internal/fault"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/pciam"
	"hybridstitch/internal/tile"
)

// This file is the stitch layer of the fault/degradation design: the
// per-run fault plan (injector + retry policy + degrade switch), the
// instrumented wrappers around tile reads, forward transforms, and pair
// displacements, and the thread-safe collector that turns persistent
// failures into the Result's degraded-tile/pair report instead of an
// abort. Phase 2 already tolerates missing edges (the spanning tree
// reconnects through nominal displacements), so a degraded phase-1
// result still places every surviving tile.

// faultPlan is the per-run view of the robustness options, carrying the
// run's observability recorder so every instrumented site records its
// span, latency, and retry count in one place.
type faultPlan struct {
	inj     *fault.Injector
	retry   fault.Retrier
	degrade bool
	rec     *obs.Recorder
}

// plan extracts the fault plan from the options.
func (o Options) plan() faultPlan {
	retry := fault.Retrier{
		MaxRetries: o.MaxRetries,
		Backoff:    o.RetryBackoff,
		MaxBackoff: 16 * o.RetryBackoff,
	}
	if rec := o.Obs; rec != nil {
		retries := rec.Counter(CounterRetries)
		retry.OnRetry = func(int) { retries.Add(1) }
	}
	return faultPlan{
		inj:     o.Faults,
		retry:   retry,
		degrade: o.Degrade,
		rec:     o.Obs,
	}
}

// op wraps one instrumented operation in a child span of parent, a
// latency histogram observation, and a success counter. Everything is
// nil-safe: with no recorder the overhead is a few nil checks.
func (fp faultPlan) op(parent *obs.Span, name, histogram, counter string, attr obs.Attr, run func() error) error {
	sp := parent.Child(name, attr)
	if sp == nil && fp.rec != nil {
		// Callers without a span hierarchy (Fiji's batch workers) still
		// get flat spans on a per-operation track.
		sp = fp.rec.StartSpan(obs.TrackOpPrefix+name, name, attr)
	}
	start := time.Now()
	err := run()
	sp.End()
	if fp.rec != nil {
		fp.rec.Histogram(histogram).ObserveDuration(time.Since(start))
		if err == nil {
			fp.rec.Counter(counter).Add(1)
		}
	}
	return err
}

// detail renders a coordinate as the site-detail string rules match on
// (same shape as the tile file names genplate writes).
func detail(c tile.Coord) string {
	return fmt.Sprintf("r%03d_c%03d", c.Row, c.Col)
}

// detailer lets a Source override the coordinate frame of fault details.
// Band-restricted sources (per-socket pipelines) translate to the global
// grid so a rule matching one tile hits that tile no matter which band
// reads it.
type detailer interface {
	TileDetail(c tile.Coord) string
}

// tileDetail renders the site-detail string for a read of c from src.
func tileDetail(src Source, c tile.Coord) string {
	if d, ok := src.(detailer); ok {
		return d.TileDetail(c)
	}
	return detail(c)
}

// readTile reads one tile through the "stitch.read" error point with
// bounded retry, recorded as a "read" span under parent.
func (fp faultPlan) readTile(src Source, c tile.Coord, parent *obs.Span) (*tile.Gray16, error) {
	var img *tile.Gray16
	err := fp.op(parent, obs.SpanRead, obs.HistReadSeconds, CounterTilesRead, tileAttr(c), func() error {
		return fp.retry.Do(func() error {
			if err := fp.inj.Hit(fault.SiteStitchRead, tileDetail(src, c)); err != nil {
				return err
			}
			var err error
			img, err = src.ReadTile(c)
			return err
		})
	})
	if err != nil {
		return nil, fmt.Errorf("read tile %v: %w", c, err)
	}
	return img, nil
}

// transform computes a forward FFT through the "stitch.fft" error point
// with bounded retry, recorded as an "fft" span under parent.
func (fp faultPlan) transform(al *pciam.RealAligner, c tile.Coord, img *tile.Gray16, parent *obs.Span) ([]complex128, error) {
	var f []complex128
	err := fp.op(parent, obs.SpanFFT, obs.HistFFTSeconds, obs.CounterFFTOps, tileAttr(c), func() error {
		return fp.retry.Do(func() error {
			if err := fp.inj.Hit(fault.SiteStitchFFT, detail(c)); err != nil {
				return err
			}
			var err error
			f, err = al.Transform(img)
			return err
		})
	})
	if err != nil {
		return nil, fmt.Errorf("transform tile %v: %w", c, err)
	}
	return f, nil
}

// displace computes a pair displacement through the "pciam.ncc" error
// point with bounded retry, recorded as a "disp" span under parent.
func (fp faultPlan) displace(al *pciam.RealAligner, p tile.Pair, aImg, bImg *tile.Gray16, aF, bF []complex128, parent *obs.Span) (tile.Displacement, error) {
	var d tile.Displacement
	err := fp.op(parent, obs.SpanDisp, obs.HistDispSeconds, obs.CounterDispOps, pairAttr(p), func() error {
		return fp.retry.Do(func() error {
			if err := fp.inj.Hit(fault.SitePCIAMNCC, detail(p.Coord)+"/"+p.Dir.String()); err != nil {
				return err
			}
			var err error
			d, err = al.Displace(aImg, bImg, aF, bF)
			return err
		})
	})
	if err != nil {
		return d, fmt.Errorf("displace pair %v: %w", p, err)
	}
	return d, nil
}

// degradedSet collects per-tile and per-pair casualties during a
// Degrade-mode run. Safe for concurrent use; finalize sorts the
// collections into the Result deterministically, so concurrent runs
// report identical lists regardless of scheduling.
type degradedSet struct {
	mu    sync.Mutex
	g     tile.Grid
	tiles map[int]error
	pairs map[tile.Pair]error
}

func newDegradedSet(g tile.Grid) *degradedSet {
	return &degradedSet{g: g, tiles: make(map[int]error), pairs: make(map[tile.Pair]error)}
}

// tileFailed records a persistent per-tile failure (first error wins).
func (d *degradedSet) tileFailed(c tile.Coord, err error) {
	d.mu.Lock()
	if _, dup := d.tiles[d.g.Index(c)]; !dup {
		d.tiles[d.g.Index(c)] = err
	}
	d.mu.Unlock()
}

// pairFailed records a persistent per-pair failure (first error wins).
func (d *degradedSet) pairFailed(p tile.Pair, err error) {
	d.mu.Lock()
	if _, dup := d.pairs[p]; !dup {
		d.pairs[p] = err
	}
	d.mu.Unlock()
}

// tileBad returns the recorded error for a degraded tile, or nil.
func (d *degradedSet) tileBad(c tile.Coord) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tiles[d.g.Index(c)]
}

// pairCause builds the degraded-pair error for a pair whose side tile
// was lost. The pair itself is not named here — every consumer (CLI
// summary, report table) prints it as the row label.
func pairCause(p tile.Pair, c tile.Coord, tileErr error) error {
	return fmt.Errorf("tile %v degraded: %w", c, tileErr)
}

// finalize writes the sorted degraded report into res.
func (d *degradedSet) finalize(res *Result) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tiles) == 0 && len(d.pairs) == 0 {
		return
	}
	idxs := make([]int, 0, len(d.tiles))
	for i := range d.tiles {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		res.DegradedTiles = append(res.DegradedTiles, DegradedTile{Coord: d.g.CoordOf(i), Err: d.tiles[i]})
	}
	pairs := make([]tile.Pair, 0, len(d.pairs))
	for p := range d.pairs {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		ia, ib := d.g.Index(pairs[a].Coord), d.g.Index(pairs[b].Coord)
		if ia != ib {
			return ia < ib
		}
		return pairs[a].Dir < pairs[b].Dir
	})
	for _, p := range pairs {
		res.DegradedPairs = append(res.DegradedPairs, DegradedPair{Pair: p, Err: d.pairs[p]})
	}
}

// MaskDegraded wraps src so that tiles the run lost read as blank
// background instead of failing: phase 3 can render the composite of a
// degraded run with holes where the casualties were. Returns src
// unchanged for a clean result.
func MaskDegraded(src Source, res *Result) Source {
	if res == nil || len(res.DegradedTiles) == 0 {
		return src
	}
	bad := make(map[tile.Coord]bool, len(res.DegradedTiles))
	for _, dt := range res.DegradedTiles {
		bad[dt.Coord] = true
	}
	return &maskedSource{inner: src, bad: bad}
}

type maskedSource struct {
	inner Source
	bad   map[tile.Coord]bool
}

func (m *maskedSource) Grid() tile.Grid { return m.inner.Grid() }

func (m *maskedSource) ReadTile(c tile.Coord) (*tile.Gray16, error) {
	if m.bad[c] {
		g := m.inner.Grid()
		return tile.NewGray16(g.TileW, g.TileH), nil
	}
	return m.inner.ReadTile(c)
}
