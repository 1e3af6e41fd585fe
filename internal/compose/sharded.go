package compose

import (
	"fmt"
	"image"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/global"
	"hybridstitch/internal/memgov"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
)

// This file is phase 3's one engine, composeRect, and its sinks. The
// engine walks a plate rectangle top to bottom in bands, blends only the
// source tiles intersecting each band, and hands finished rows to a
// cascade of 2x reducers (one pending row per level), so neither the
// plate nor any reduced level is ever resident. Three sinks share it:
// ComposeSharded streams every level into a tiffio.PyramidWriter,
// Compose copies level 0 into an image, and the Viewer keeps level L of
// a region snapped to the plate's 2^L grid.
//
// Bit-identity with the whole-plate blend is a design invariant, not an
// approximation: within a band, tiles are visited in grid order, so
// every pixel sees the same float additions in the same order, and the
// reducer applies the same round-to-nearest box filter to the same
// rounded inputs as recursive downsampling. The tests compare against
// in-memory oracles byte-for-byte.
//
// The phase is a pipeline on the shared worker budget: pool helpers read
// a band's tiles ahead of the blend (readAhead, below) and deflate the
// pyramid tiles behind it (tiffio.PyramidWriter), while blending,
// reduction and the file's tile order stay with the calling goroutine
// and one writer goroutine. With an empty pool the same code runs every
// stage on the caller.

// ShardedOpts configures ComposeSharded.
type ShardedOpts struct {
	// Blend selects the pixel-combination rule (same three as Compose).
	Blend Blend
	// TileW/TileH set the pyramid tile size (default 256, multiples of 16).
	TileW, TileH int
	// MinSide stops the pyramid once both dimensions fit (default 256).
	MinSide int
	// BandRows fixes the band height in output rows (rounded up to a
	// multiple of TileH). 0 derives it from Gov's physical budget; with
	// no governor either, the default is 4 tile rows.
	BandRows int
	// NoDeflate stores pyramid tiles uncompressed.
	NoDeflate bool
	// Gov, when set, sizes the band and charges the working set (band
	// accumulators + pyramid staging + reducer rows) against the budget.
	Gov *memgov.Governor
	// Rec, when set, records the compose.sharded/compose.band spans and
	// the compose.band.*, compose.encode.* and compose.read.* metrics on
	// the phase-3 track.
	Rec *obs.Recorder
	// Pool lends helper goroutines for tile read-ahead and deflate. nil
	// means fft.SharedPool(), the budget phases 1 and 2 draw on: one
	// budget, not two. The output does not depend on it.
	Pool *fft.WorkerPool
}

func (o ShardedOpts) withDefaults() ShardedOpts {
	if o.TileW == 0 {
		o.TileW = 256
	}
	if o.TileH == 0 {
		o.TileH = 256
	}
	if o.MinSide == 0 {
		o.MinSide = 256
	}
	return o
}

// bytesPerBandRow is the accounted working-set cost of one output row in
// a band: the resolved uint16 row plus, for the blended modes, the
// float64 accumulator and weight rows.
func bytesPerBandRow(w int, blend Blend) int64 {
	n := int64(2 * w)
	if blend == BlendAverage || blend == BlendLinear {
		n += int64(16 * w)
	}
	return n
}

// shardedFixedBytes is the band-independent accounted cost with lanes
// goroutines at work: the pyramid writer's staging and in-flight tile
// jobs, the reducer cascade's pending and output rows, and the read-ahead
// window of source tiles. inflight is the part that grows with lanes.
func shardedFixedBytes(dims [][2]int, g tile.Grid, popts tiffio.PyramidOpts, lanes int) (fixed, inflight int64) {
	staging, jobs := popts.BufferBytes(dims[0][0], dims[0][1])
	fixed = staging
	for l := 1; l < len(dims); l++ {
		fixed += int64(2*dims[l-1][0] + 2*dims[l][0]) // reducer pending + emit rows
	}
	inflight = jobs + int64(readWindow(lanes)*2*g.TileW*g.TileH)
	return fixed + inflight, inflight
}

// laneRunner lends the pool's helpers to phase 3, at most n at a time:
// the number whose buffers the memory budget has room for.
type laneRunner struct {
	pool *fft.WorkerPool
	n    int
	live atomic.Int32
}

func (r *laneRunner) Cap() int { return r.n }

func (r *laneRunner) TryGo(fn func()) bool {
	if int(r.live.Add(1)) <= r.n && r.pool.TryGo(func() {
		defer r.live.Add(-1)
		fn()
	}) {
		return true
	}
	r.live.Add(-1)
	return false
}

// bandRowsFor picks the band height: the largest multiple of tileH whose
// working set fits the remaining budget, floored at one tile row (the
// governor models the cliff rather than refusing, so a budget too small
// for even one tile row still composes — it just pays).
func bandRowsFor(opts ShardedOpts, w, h int, fixed int64) int {
	if opts.BandRows > 0 {
		return ((opts.BandRows + opts.TileH - 1) / opts.TileH) * opts.TileH
	}
	rows := 4 * opts.TileH
	if opts.Gov != nil {
		budget := opts.Gov.Physical() - fixed
		perRow := bytesPerBandRow(w, opts.Blend)
		rows = int(budget / perRow)
	}
	rows = (rows / opts.TileH) * opts.TileH
	if rows < opts.TileH {
		rows = opts.TileH
	}
	if excess := rows - ((h + opts.TileH - 1) / opts.TileH * opts.TileH); excess > 0 {
		rows -= excess
	}
	return rows
}

// rowReducer halves rows of one pyramid level into the next: it consumes
// level l-1 rows top to bottom and emits a level-l row for every pair
// (or the final odd row alone), applying exactly Downsample2x's
// round-to-nearest box filter so a cascade of reducers reproduces the
// recursive in-memory pyramid bit for bit.
type rowReducer struct {
	srcW, dstW int
	pending    []uint16 // previous unpaired source row
	hasPending bool
	out        []uint16
}

func newRowReducer(srcW int) *rowReducer {
	return &rowReducer{
		srcW:    srcW,
		dstW:    (srcW + 1) / 2,
		pending: make([]uint16, srcW),
		out:     make([]uint16, (srcW+1)/2),
	}
}

// feed offers one source row; it returns the reduced row when a pair
// completes, else nil. The returned slice is reused by the next emit.
func (r *rowReducer) feed(row []uint16) []uint16 {
	if !r.hasPending {
		copy(r.pending, row)
		r.hasPending = true
		return nil
	}
	r.hasPending = false
	return r.reduce(r.pending, row)
}

// flush emits the final odd row, if any.
func (r *rowReducer) flush() []uint16 {
	if !r.hasPending {
		return nil
	}
	r.hasPending = false
	return r.reduce(r.pending, nil)
}

func (r *rowReducer) reduce(a, b []uint16) []uint16 {
	// Interior: full 2×2 blocks, where (sum+2)>>2 is the general
	// expression below at cnt = 4. The odd last column and the odd last
	// row (b == nil) stay on the general expression.
	full := 0
	if b != nil {
		full = r.srcW / 2
		a, b, out := a[:2*full], b[:2*full], r.out[:full]
		for x := range out {
			out[x] = uint16((int(a[2*x]) + int(a[2*x+1]) + int(b[2*x]) + int(b[2*x+1]) + 2) >> 2)
		}
	}
	for x := full; x < r.dstW; x++ {
		sum := int(a[2*x])
		cnt := 1
		if 2*x+1 < r.srcW {
			sum += int(a[2*x+1])
			cnt++
		}
		if b != nil {
			sum += int(b[2*x])
			cnt++
			if 2*x+1 < r.srcW {
				sum += int(b[2*x+1])
				cnt++
			}
		}
		r.out[x] = uint16((sum + cnt/2) / cnt)
	}
	return r.out
}

// readWindow is how many source tiles may be read but not yet blended
// with lanes goroutines at work: two per lane, as the pyramid writer
// keeps two tile jobs per lane.
func readWindow(lanes int) int { return 2 * lanes }

// readAhead reads a band's source tiles ahead of the blend. The blend
// consumes positions 0, 1, 2, ... of the band's tile list strictly in
// order through get; pool helpers claim and read the next unclaimed
// positions inside a window ahead of it, and get reads a position itself
// when nobody has claimed it yet — which is every position when the pool
// lends no helper. Who read a tile never shows in the output.
type readAhead struct {
	src  stitch.Source
	grid tile.Grid
	run  tiffio.Runner

	mu    sync.Mutex
	tiles []int // the band's source tiles, in grid order
	next  int   // first position nobody has claimed
	limit int   // positions below it may be claimed: consumer + window
	slots []readSlot

	helpers sync.WaitGroup
	busyNS  atomic.Int64 // time inside src.ReadTile, summed over goroutines
}

// readSlot holds position p's tile for p%window: a slot is claimed again
// only once the consumer is past its previous position.
type readSlot struct {
	t    *tile.Gray16
	err  error
	done chan struct{} // cap 1: t and err are set
}

func newReadAhead(src stitch.Source, grid tile.Grid, run tiffio.Runner, window int) *readAhead {
	ra := &readAhead{src: src, grid: grid, run: run, slots: make([]readSlot, window)}
	for i := range ra.slots {
		ra.slots[i].done = make(chan struct{}, 1)
	}
	return ra
}

// begin starts a band; every position of the previous one was consumed.
func (ra *readAhead) begin(tiles []int) {
	ra.mu.Lock()
	ra.tiles, ra.next, ra.limit = tiles, 0, 0
	ra.mu.Unlock()
}

func (ra *readAhead) read(i int) (*tile.Gray16, error) {
	start := time.Now()
	t, err := ra.src.ReadTile(ra.grid.CoordOf(i))
	ra.busyNS.Add(int64(time.Since(start)))
	return t, err
}

// help is a read helper: it reads claimable positions until there is
// none, then gives its pool token back.
func (ra *readAhead) help() {
	defer ra.helpers.Done()
	for {
		ra.mu.Lock()
		p := ra.next
		ok := p < ra.limit && p < len(ra.tiles)
		var i int
		if ok {
			i = ra.tiles[p]
			ra.next++
		}
		ra.mu.Unlock()
		if !ok {
			return
		}
		s := &ra.slots[p%len(ra.slots)]
		s.t, s.err = ra.read(i)
		s.done <- struct{}{}
	}
}

// get returns the tile at position c of the band; calls must go c = 0,
// 1, 2, ... It moves the window up to c and offers the newly claimable
// position to a helper.
func (ra *readAhead) get(c int) (*tile.Gray16, error) {
	ra.mu.Lock()
	ra.limit = c + len(ra.slots)
	mine := ra.next == c
	if mine {
		ra.next++
	}
	more := ra.next < ra.limit && ra.next < len(ra.tiles)
	ra.mu.Unlock()
	if more {
		ra.helpers.Add(1)
		if !ra.run.TryGo(ra.help) {
			ra.helpers.Done()
		}
	}
	if mine {
		return ra.read(ra.tiles[c])
	}
	s := &ra.slots[c%len(ra.slots)]
	<-s.done
	t, err := s.t, s.err
	s.t = nil
	return t, err
}

// stop closes the window and waits for the helpers to exit.
func (ra *readAhead) stop() {
	ra.begin(nil)
	ra.helpers.Wait()
}

// cascade is the engine's sink. Level-0 rows go in top to bottom;
// reducers[l] halves level-l rows into level l+1, and at sees every
// finished row of every level, each level top to bottom. The pyramid
// sink writes every level; the region sink keeps the last one.
type cascade struct {
	reducers []*rowReducer
	at       func(l int, row []uint16) error
}

// newCascade builds a sink of levels reductions over level-0 rows w
// pixels wide.
func newCascade(w, levels int, at func(l int, row []uint16) error) *cascade {
	c := &cascade{reducers: make([]*rowReducer, levels), at: at}
	for l := range c.reducers {
		c.reducers[l] = newRowReducer(w)
		w = (w + 1) / 2
	}
	return c
}

func (c *cascade) feed(l int, row []uint16) error {
	if err := c.at(l, row); err != nil {
		return err
	}
	if l < len(c.reducers) {
		if red := c.reducers[l].feed(row); red != nil {
			return c.feed(l+1, red)
		}
	}
	return nil
}

// flush drains the reducers: an odd-height level leaves one pending row
// per reducer.
func (c *cascade) flush() error {
	for l, r := range c.reducers {
		if red := r.flush(); red != nil {
			if err := c.feed(l+1, red); err != nil {
				return err
			}
		}
	}
	return nil
}

// plateBounds returns the composite's size, or why pl and blend cannot
// be composed.
func plateBounds(pl *global.Placement, blend Blend) (w, h int, err error) {
	w, h = pl.Bounds()
	if w <= 0 || h <= 0 {
		return 0, 0, fmt.Errorf("compose: degenerate composite %dx%d", w, h)
	}
	switch blend {
	case BlendOverlay, BlendAverage, BlendLinear:
		return w, h, nil
	}
	return 0, 0, fmt.Errorf("compose: unknown blend %v", blend)
}

// composeRect is phase 3's one engine. It composes the plate rectangle
// r in bands of opts.BandRows rows: each band reads the tiles that
// intersect it, in grid order, through a readAhead on run, and blends
// them clipped to the band on both axes — a row copy for BlendOverlay,
// weighted accumulation then resolve for the others. Within a band every
// pixel sees the same float additions in the same order as a
// whole-plate blend, so the band height never shows in the output.
// Finished rows go to sink at level 0, top to bottom, and the sink is
// flushed at the end.
func composeRect(pl *global.Placement, src stitch.Source, r image.Rectangle, opts ShardedOpts, run *laneRunner, sink *cascade) error {
	g := pl.Grid
	w := r.Dx()
	bandRows := min(opts.BandRows, r.Dy())
	band := make([]uint16, w*bandRows)
	blended := opts.Blend == BlendAverage || opts.Blend == BlendLinear
	var acc, wgt []float64
	if blended {
		acc = make([]float64, w*bandRows)
		wgt = make([]float64, w*bandRows)
	}
	cBands := opts.Rec.Counter(obs.CounterComposeBands)
	cTiles := opts.Rec.Counter(obs.CounterComposeBandTiles)
	ra := newReadAhead(src, g, run, readWindow(run.n+1))
	defer func() {
		ra.stop()
		opts.Rec.Counter(obs.CounterComposeReadBusyNS).Add(ra.busyNS.Load())
	}()

	var inBand []int // the band's source tiles, in grid order
	for y0 := r.Min.Y; y0 < r.Max.Y; y0 += bandRows {
		y1 := min(y0+bandRows, r.Max.Y)
		bh := y1 - y0
		bsp := opts.Rec.StartSpan(obs.TrackPhase3, obs.SpanComposeBand,
			obs.String("y0", fmt.Sprint(y0)), obs.String("rows", fmt.Sprint(bh)))
		if opts.Gov != nil {
			opts.Gov.Touch(int64(bh) * bytesPerBandRow(w, opts.Blend))
		}
		clear(band[:bh*w])
		if blended {
			clear(acc[:bh*w])
			clear(wgt[:bh*w])
		}

		inBand = inBand[:0]
		for i := 0; i < g.NumTiles(); i++ {
			if pl.Y[i] < y1 && pl.Y[i]+g.TileH > y0 && pl.X[i] < r.Max.X && pl.X[i]+g.TileW > r.Min.X {
				inBand = append(inBand, i)
			}
		}
		ra.begin(inBand)
		for c, i := range inBand {
			t, err := ra.get(c)
			if err != nil {
				bsp.End()
				return err
			}
			// The tile's rows [rs, re) and columns [cs, ce) inside the
			// band; off is where its pixel (0, 0) falls in band.
			tx0, ty0 := pl.X[i], pl.Y[i]
			rs, re := max(y0-ty0, 0), min(t.H, y1-ty0)
			cs, ce := max(r.Min.X-tx0, 0), min(t.W, r.Max.X-tx0)
			off := (ty0-y0)*w + tx0 - r.Min.X
			switch opts.Blend {
			case BlendOverlay:
				for y := rs; y < re; y++ {
					copy(band[off+y*w+cs:off+y*w+ce], t.Pix[y*t.W+cs:y*t.W+ce])
				}
			default:
				for y := rs; y < re; y++ {
					for x := cs; x < ce; x++ {
						wt := 1.0
						if opts.Blend == BlendLinear {
							wt = feather(x, y, t.W, t.H)
						}
						idx := off + y*w + x
						acc[idx] += wt * float64(t.Pix[y*t.W+x])
						wgt[idx] += wt
					}
				}
			}
		}
		if blended {
			for i := range band[:bh*w] {
				if wgt[i] > 0 {
					band[i] = uint16(min(acc[i]/wgt[i], 65535))
				}
			}
		}
		for y := 0; y < bh; y++ {
			if err := sink.feed(0, band[y*w:(y+1)*w]); err != nil {
				bsp.End()
				return err
			}
		}
		cBands.Add(1)
		cTiles.Add(int64(len(inBand)))
		bsp.End()
	}
	return sink.flush()
}

// render composes the region [ox, ox+w) × [oy, oy+h) of pyramid level
// level, in that level's pixels, into a new w×h image; what lies outside
// the level is 0. The engine walks the plate rectangle under the region,
// whose corners sit on the plate's 2^level grid or on its edge, so the
// level reducers in front of the image see the same 2×2 blocks the
// pyramid's do: the region is a crop of the pyramid's level.
func render(pl *global.Placement, src stitch.Source, ox, oy, w, h, level int, opts ShardedOpts, run *laneRunner) (*tile.Gray16, error) {
	out := tile.NewGray16(w, h)
	pw, ph := pl.Bounds()
	lw, lh := (pw+1<<level-1)>>level, (ph+1<<level-1)>>level // the level's size
	x0, y0 := max(ox, 0), max(oy, 0)
	x1, y1 := min(ox+w, lw), min(oy+h, lh)
	if x0 >= x1 || y0 >= y1 {
		return out, nil
	}
	r := image.Rect(x0<<level, y0<<level, min(x1<<level, pw), min(y1<<level, ph))
	next := (y0-oy)*w + x0 - ox // where the region's next level row goes
	sink := newCascade(r.Dx(), level, func(l int, row []uint16) error {
		if l == level {
			copy(out.Pix[next:], row)
			next += w
		}
		return nil
	})
	if err := composeRect(pl, src, r, opts, run, sink); err != nil {
		return nil, err
	}
	return out, nil
}

// ComposeSharded composes the placement into a pyramid file on ws in
// bounded memory: the engine over the whole plate, feeding a cascade
// that writes every level. The level-0 pixels are those of Compose with
// the same blend; each reduced level is the 2× box filter (rounding to
// nearest) of the one above.
func ComposeSharded(pl *global.Placement, src stitch.Source, ws io.WriteSeeker, opts ShardedOpts) error {
	opts = opts.withDefaults()
	w, h, err := plateBounds(pl, opts.Blend)
	if err != nil {
		return err
	}

	// lanes is how many goroutines phase 3 plans to keep busy: the caller
	// plus one per pool token, shedding helpers while their in-flight
	// buffers would take more than a quarter of the memory budget.
	pool := opts.Pool
	if pool == nil {
		pool = fft.SharedPool()
	}
	g := pl.Grid
	dims := tiffio.PyramidLevelDims(w, h, opts.MinSide)
	run := &laneRunner{pool: pool, n: pool.Cap()}
	popts := tiffio.PyramidOpts{
		TileW: opts.TileW, TileH: opts.TileH, MinSide: opts.MinSide, NoDeflate: opts.NoDeflate, Runner: run,
	}
	fixed, inflight := shardedFixedBytes(dims, g, popts, run.n+1)
	for opts.Gov != nil && run.n > 0 && inflight > opts.Gov.Physical()/4 {
		run.n--
		fixed, inflight = shardedFixedBytes(dims, g, popts, run.n+1)
	}
	opts.BandRows = bandRowsFor(opts, w, h, fixed)

	sp := opts.Rec.StartSpan(obs.TrackPhase3, obs.SpanComposeSharded,
		obs.String("blend", opts.Blend.String()),
		obs.String("size", fmt.Sprintf("%dx%d", w, h)),
		obs.String("band_rows", fmt.Sprint(opts.BandRows)),
		obs.String("levels", fmt.Sprint(len(dims))))
	defer sp.End()

	// One charge covers the whole run: the fixed staging plus one band's
	// accumulators. The working set genuinely is this size from first
	// band to last, so a single Alloc both keeps peak accounting honest
	// and pays the paging penalty (Touch) per band in the engine.
	if opts.Gov != nil {
		a, err := opts.Gov.Alloc(fixed + int64(opts.BandRows)*bytesPerBandRow(w, opts.Blend))
		if err != nil {
			return err
		}
		defer a.Free()
	}

	pw, err := tiffio.NewPyramidWriter(ws, w, h, popts)
	if err != nil {
		return err
	}
	// Every return joins the writer's goroutines (Abort does nothing
	// after Close), then publishes what they did.
	defer func() {
		pw.Abort()
		st := pw.Stats()
		opts.Rec.Counter(obs.CounterComposeEncodeTiles).Add(st.Tiles)
		opts.Rec.Counter(obs.CounterComposeEncodeCallerTiles).Add(st.CallerTiles)
		opts.Rec.Counter(obs.CounterComposeEncodeBusyNS).Add(int64(st.DeflateBusy))
		opts.Rec.Gauge(obs.GaugeComposeEncodeQueueDepth).Set(float64(st.MaxQueue))
	}()
	sink := newCascade(w, len(dims)-1, func(l int, row []uint16) error {
		return pw.WriteRows(l, row, 1)
	})
	if err := composeRect(pl, src, image.Rect(0, 0, w, h), opts, run, sink); err != nil {
		return err
	}
	return pw.Close()
}

// ComposeShardedFile composes into a pyramid file at path.
func ComposeShardedFile(pl *global.Placement, src stitch.Source, path string, opts ShardedOpts) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ComposeSharded(pl, src, f, opts); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}
