package compose

import (
	"fmt"
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

// This file is the out-of-core compositor: phase 3 for plates whose
// composite (let alone the 16-bytes-per-pixel blend accumulators) does
// not fit the memory budget. Instead of assembling the plate in one
// resident buffer, ComposeSharded walks the placement top to bottom in
// output-tile-aligned bands, blends only the source tiles intersecting
// each band, and streams finished bands into a tiffio.PyramidWriter.
// Reduced pyramid levels are box-filtered row by row as bands retire
// (a cascade of 2x reducers, one pending row per level), so no level is
// ever fully resident either.
//
// Bit-identity with the in-memory path is a design invariant, not an
// approximation: within a band, tiles are visited in the same grid order
// Compose uses, so every pixel sees the same float additions in the same
// order, and the reducer applies the same round-to-nearest box filter
// Downsample2x does to the same rounded inputs. The equivalence tests
// compare byte-for-byte.
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

// ComposeSharded composes the placement into a pyramid file on ws in
// bounded memory. The level-0 pixels are bit-identical to Compose with
// the same blend; the reduced levels are bit-identical to Pyramid
// (recursive Downsample2x) over that composite.
func ComposeSharded(pl *global.Placement, src stitch.Source, ws io.WriteSeeker, opts ShardedOpts) error {
	opts = opts.withDefaults()
	w, h := pl.Bounds()
	if w <= 0 || h <= 0 {
		return fmt.Errorf("compose: degenerate composite %dx%d", w, h)
	}
	switch opts.Blend {
	case BlendOverlay, BlendAverage, BlendLinear:
	default:
		return fmt.Errorf("compose: unknown blend %v", opts.Blend)
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
	bandRows := bandRowsFor(opts, w, h, fixed)

	sp := opts.Rec.StartSpan(obs.TrackPhase3, obs.SpanComposeSharded,
		obs.String("blend", opts.Blend.String()),
		obs.String("size", fmt.Sprintf("%dx%d", w, h)),
		obs.String("band_rows", fmt.Sprint(bandRows)),
		obs.String("levels", fmt.Sprint(len(dims))))
	defer sp.End()
	cBands := opts.Rec.Counter(obs.CounterComposeBands)
	cTiles := opts.Rec.Counter(obs.CounterComposeBandTiles)

	// One charge covers the whole run: the fixed staging plus one band's
	// accumulators. The working set genuinely is this size from first
	// band to last, so a single Alloc both keeps peak accounting honest
	// and pays the paging penalty (Touch) per band below.
	blended := opts.Blend == BlendAverage || opts.Blend == BlendLinear
	charge := fixed + int64(bandRows)*bytesPerBandRow(w, opts.Blend)
	if opts.Gov != nil {
		a, err := opts.Gov.Alloc(charge)
		if err != nil {
			return err
		}
		defer a.Free()
	}

	pw, err := tiffio.NewPyramidWriter(ws, w, h, popts)
	if err != nil {
		return err
	}
	ra := newReadAhead(src, g, run, readWindow(run.n+1))
	// Every return joins the goroutines the two stages own (Abort does
	// nothing after Close), then publishes what they did.
	defer func() {
		pw.Abort()
		ra.stop()
		st := pw.Stats()
		opts.Rec.Counter(obs.CounterComposeEncodeTiles).Add(st.Tiles)
		opts.Rec.Counter(obs.CounterComposeEncodeCallerTiles).Add(st.CallerTiles)
		opts.Rec.Counter(obs.CounterComposeEncodeBusyNS).Add(int64(st.DeflateBusy))
		opts.Rec.Counter(obs.CounterComposeReadBusyNS).Add(ra.busyNS.Load())
		opts.Rec.Gauge(obs.GaugeComposeEncodeQueueDepth).Set(float64(st.MaxQueue))
	}()

	// The reducer cascade: reducers[l] consumes level-l rows and emits
	// level-l+1 rows.
	reducers := make([]*rowReducer, len(dims)-1)
	for l := range reducers {
		reducers[l] = newRowReducer(dims[l][0])
	}
	var cascade func(l int, row []uint16) error
	cascade = func(l int, row []uint16) error {
		if err := pw.WriteRows(l, row, 1); err != nil {
			return err
		}
		if l < len(reducers) {
			if red := reducers[l].feed(row); red != nil {
				return cascade(l+1, red)
			}
		}
		return nil
	}

	band := tile.NewGray16(w, bandRows)
	var acc, wgt []float64
	if blended {
		acc = make([]float64, w*bandRows)
		wgt = make([]float64, w*bandRows)
	}

	var inBand []int // the band's source tiles, in grid order
	for y0 := 0; y0 < h; y0 += bandRows {
		y1 := y0 + bandRows
		if y1 > h {
			y1 = h
		}
		bh := y1 - y0
		bsp := opts.Rec.StartSpan(obs.TrackPhase3, obs.SpanComposeBand,
			obs.String("y0", fmt.Sprint(y0)), obs.String("rows", fmt.Sprint(bh)))
		if opts.Gov != nil {
			opts.Gov.Touch(int64(bh) * bytesPerBandRow(w, opts.Blend))
		}
		for i := range band.Pix[:bh*w] {
			band.Pix[i] = 0
		}
		if blended {
			for i := range acc[:bh*w] {
				acc[i] = 0
				wgt[i] = 0
			}
		}

		inBand = inBand[:0]
		for i := 0; i < g.NumTiles(); i++ {
			if ty0 := pl.Y[i]; ty0 < y1 && ty0+g.TileH > y0 {
				inBand = append(inBand, i)
			}
		}
		ra.begin(inBand)
		for c, i := range inBand {
			tx0, ty0 := pl.X[i], pl.Y[i]
			t, err := ra.get(c)
			if err != nil {
				bsp.End()
				return err
			}
			// Clip the tile's row range to the band; x placement is
			// unchanged from the in-memory path.
			rs := 0
			if ty0 < y0 {
				rs = y0 - ty0
			}
			re := t.H
			if ty0+re > y1 {
				re = y1 - ty0
			}
			switch opts.Blend {
			case BlendOverlay:
				for y := rs; y < re; y++ {
					by := ty0 + y - y0
					copy(band.Pix[by*w+tx0:by*w+tx0+t.W], t.Pix[y*t.W:(y+1)*t.W])
				}
			default:
				for y := rs; y < re; y++ {
					by := ty0 + y - y0
					for x := 0; x < t.W; x++ {
						wt := 1.0
						if opts.Blend == BlendLinear {
							wt = feather(x, y, t.W, t.H)
						}
						idx := by*w + tx0 + x
						acc[idx] += wt * float64(t.Pix[y*t.W+x])
						wgt[idx] += wt
					}
				}
			}
		}
		if blended {
			for i := 0; i < bh*w; i++ {
				if wgt[i] > 0 {
					v := acc[i] / wgt[i]
					if v > 65535 {
						v = 65535
					}
					band.Pix[i] = uint16(v)
				} else {
					band.Pix[i] = 0
				}
			}
		}
		for y := 0; y < bh; y++ {
			if err := cascade(0, band.Pix[y*w:(y+1)*w]); err != nil {
				bsp.End()
				return err
			}
		}
		cBands.Add(1)
		cTiles.Add(int64(len(inBand)))
		bsp.End()
	}

	// Drain the reducer cascade: an odd-height level leaves one pending
	// row per reducer.
	for l := 0; l < len(reducers); l++ {
		if red := reducers[l].flush(); red != nil {
			if err := cascade(l+1, red); err != nil {
				return err
			}
		}
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
