package stitch

import (
	"fmt"
	"sync"

	"hybridstitch/internal/tile"
)

// Per-socket execution (paper §IV.B: "In the future, we will modify this
// implementation to create one execution pipeline per CPU socket"): the
// grid is decomposed into row bands exactly like the multi-GPU split,
// and each socket runs an independent 3-stage pipeline over its band with
// its own transform cache — so on a NUMA machine every pipeline touches
// only socket-local memory. Tiles on a band boundary are read and
// transformed by both adjacent sockets, the same redundancy the GPU
// partitioning accepts.

// bandSource adapts a Source to one row band.
type bandSource struct {
	inner  Source
	rowOff int
	g      tile.Grid
}

func (b bandSource) Grid() tile.Grid { return b.g }

func (b bandSource) ReadTile(c tile.Coord) (*tile.Gray16, error) {
	return b.inner.ReadTile(tile.Coord{Row: c.Row + b.rowOff, Col: c.Col})
}

// TileDetail reports fault details in the global coordinate frame, so an
// injection rule targeting one tile matches it in whichever band reads
// it.
func (b bandSource) TileDetail(c tile.Coord) string {
	return tileDetail(b.inner, tile.Coord{Row: c.Row + b.rowOff, Col: c.Col})
}

// runSockets executes one pipeline per socket and merges the results.
// Each band is a full engine run with its own cache and span tree; only
// the merged run publishes, so a boundary tile read — and, under
// injected faults, degraded — by two adjacent bands is counted once.
func runSockets(src Source, opts Options) (*Result, error) {
	r, err := newRun(src, opts, "pipelined-cpu")
	if err != nil {
		return nil, err
	}
	// The merged run's own cache sits idle; the bands do the work.
	return r.publish(r.endWith(r.mergeBands(opts)))
}

// mergeBands runs the band pipelines with the caller's options split
// across them and folds their results into r's, keeping from each band
// only the rows its partition owns. It returns the bands' summed peak
// residency and transform count.
func (r *run) mergeBands(opts Options) (peak, transforms int, err error) {
	g := r.g
	parts := makePartitions(g.Rows, opts.Sockets)
	opts.Sockets = 1
	opts.Threads = max(opts.Threads/len(parts), 1)

	subs := make([]*Result, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, pt := range parts {
		wg.Add(1)
		go func(i int, pt partition) {
			defer wg.Done()
			band := g
			band.Rows = pt.rowHi - pt.needLo
			br, err := newRun(bandSource{inner: r.src, rowOff: pt.needLo, g: band}, opts, "pipelined-cpu")
			if err == nil {
				subs[i], err = br.end(br.pipelineCPU())
			}
			errs[i] = err
		}(i, pt)
	}
	wg.Wait()

	for i, pt := range parts {
		if errs[i] != nil {
			return 0, 0, fmt.Errorf("stitch: socket pipeline [rows %d-%d): %w", pt.rowLo, pt.rowHi, errs[i])
		}
		sub := subs[i]
		transforms += sub.TransformsComputed
		peak += sub.PeakTransformsLive
		// global maps a band coordinate to the plate and reports whether
		// this partition owns its row: a boundary row is read (and can
		// fail) in both adjacent bands, and is reported by its owner only.
		global := func(c tile.Coord) (tile.Coord, bool) {
			c.Row += pt.needLo
			return c, c.Row >= pt.rowLo && c.Row < pt.rowHi
		}
		for _, dt := range sub.DegradedTiles {
			if gc, owned := global(dt.Coord); owned {
				r.ds.tileFailed(gc, dt.Err)
			}
		}
		for _, dp := range sub.DegradedPairs {
			if gc, owned := global(dp.Pair.Coord); owned {
				r.ds.pairFailed(tile.Pair{Coord: gc, Dir: dp.Pair.Dir}, dp.Err)
			}
		}
		for _, bp := range sub.Grid.Pairs() {
			gc, owned := global(bp.Coord)
			if d, ok := sub.PairDisplacement(bp); owned && ok {
				r.res.setPair(tile.Pair{Coord: gc, Dir: bp.Dir}, d)
			}
		}
	}
	return peak, transforms, nil
}
