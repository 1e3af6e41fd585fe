package tiffio

import (
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hybridstitch/internal/tile"
)

// This file implements the multi-resolution pyramid file format the
// sharded compositor streams into and the tile server reads back: a
// BigTIFF (version 43, 64-bit offsets) with one IFD per pyramid level,
// each level tiled and (by default) per-tile Deflate-compressed. BigTIFF
// is the layout because the whole point of sharded composition is plates
// past the 4 GiB classic-TIFF offset space — the overflow ErrOffsetOverflow
// guards against.
//
// The writer is streaming: levels receive rows top to bottom, only one
// tile-row of staging is resident per level, and a completed tile row is
// cut into tile jobs at once. Jobs are deflated by whoever is free (pool
// helpers, or the producer itself when it runs out of job buffers) and
// written by one goroutine in the order they were cut, so the file does
// not depend on who compressed what. Offsets are bookkept in memory (16
// bytes per tile) and the IFD chain is written at Close.

// PyramidOpts configures NewPyramidWriter.
type PyramidOpts struct {
	// TileW/TileH set the pyramid tile size (default 256×256; the spec
	// requires multiples of 16).
	TileW, TileH int
	// MinSide stops the level chain once both dimensions fit (default
	// 256). Matches the level chain a compose.Viewer renders.
	MinSide int
	// NoDeflate stores tiles uncompressed. The default compresses each
	// tile independently with zlib (Compression=8, Predictor=2: the
	// chunk codec's one rule, tiled.go) so readers can still
	// random-access single tiles.
	NoDeflate bool
	// BigEndian writes an "MM" file; default is "II".
	BigEndian bool
	// Runner lends the writer helper goroutines to deflate tiles on; nil
	// means none, and the producer deflates every tile itself. The file
	// written is the same for every Runner.
	Runner Runner
}

// Runner is a bounded budget of helper goroutines: TryGo runs fn on
// another goroutine if a slot is free and reports whether it did, never
// blocking; Cap is the most helpers that can run at once.
// *fft.WorkerPool is the implementation (tiffio does not import fft).
type Runner interface {
	TryGo(fn func()) bool
	Cap() int
}

// jobs is the number of tile jobs a writer keeps in flight: two per
// goroutine that can deflate (the helpers plus the producer), one being
// compressed and one queued behind it.
func (o PyramidOpts) jobs() int {
	n := 1
	if o.Runner != nil {
		n += o.Runner.Cap()
	}
	return 2 * n
}

// deflateBound is the capacity a tile job reserves for the zlib stream of
// an n-byte tile. Deflate falls back to stored blocks (5 bytes each) when
// data does not compress, and a block covers at least a few KiB here, so
// n/256 is generous; 64 covers the zlib header, the checksum and the
// final empty block. Overflow would only cost a reallocation.
func deflateBound(n int) int { return n + n/256 + 64 }

// BufferBytes reports what a writer built with these options for a w×h
// image keeps resident from NewPyramidWriter to Close: the one tile row
// of staging per level, and the in-flight tile jobs (a packed tile each,
// plus its deflate bound unless NoDeflate). Callers that budget memory
// (compose.ComposeSharded) charge both.
func (o PyramidOpts) BufferBytes(w, h int) (staging, jobs int64) {
	o = o.withDefaults()
	for _, d := range PyramidLevelDims(w, h, o.MinSide) {
		staging += int64(2 * o.TileH * d[0])
	}
	per := o.TileW * o.TileH * 2
	if !o.NoDeflate {
		per += deflateBound(per)
	}
	return staging, int64(o.jobs() * per)
}

func (o PyramidOpts) withDefaults() PyramidOpts {
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

// PyramidLevelDims returns the (width, height) of every pyramid level
// for a full-resolution w×h image: level 0 is the input, each further
// level halves both dimensions (rounding up) until both fit minSide.
// compose.ComposeSharded streams exactly this chain, and a
// compose.Viewer renders regions of the same levels.
func PyramidLevelDims(w, h, minSide int) [][2]int {
	if minSide < 1 {
		minSide = 1
	}
	dims := [][2]int{{w, h}}
	cw, ch := w, h
	for cw > minSide || ch > minSide {
		nw, nh := (cw+1)/2, (ch+1)/2
		if nw == cw && nh == ch {
			break
		}
		dims = append(dims, [2]int{nw, nh})
		cw, ch = nw, nh
	}
	return dims
}

// levelWriter is the streaming state of one pyramid level.
type levelWriter struct {
	w, h         int
	rows         int      // rows received so far
	staged       int      // rows currently in buf
	buf          []uint16 // tileH × w staging
	across, down int
	offs, cnts   []uint64
}

// tileJob is one tile on its way to the file: packed by the producer,
// deflated by whoever takes it off the work queue, written by the writer
// goroutine, then handed back through the free list.
type tileJob struct {
	lv      *levelWriter
	raw     []byte        // packed tile, TileW*TileH*2 bytes
	z       []byte        // zlib stream of raw, cap deflateBound(len(raw))
	payload []byte        // what goes to the file: raw or z
	done    chan struct{} // cap 1: payload is final
}

// PyramidStats is what a writer did, for the caller's telemetry. Read it
// after Close or Abort.
type PyramidStats struct {
	// Tiles is the number of tiles cut, and CallerTiles how many of them
	// the producer deflated itself because no job buffer was free (or at
	// the final drain): the back-pressure signal, zero with NoDeflate.
	Tiles, CallerTiles int64
	// DeflateBusy is time inside zlib summed over goroutines.
	DeflateBusy time.Duration
	// MaxQueue is the deepest the deflate queue got.
	MaxQueue int
}

// PyramidWriter streams a multi-level tiled pyramid to a file. Feed each
// level its rows top to bottom with WriteRows (the compose reducer does
// this as bands retire) and call Close to write the IFD chain, or Abort
// to give up; one of the two must be called, because the writer owns a
// goroutine. It is single-producer: WriteRows, Close and Abort must come
// from one goroutine at a time.
type PyramidWriter struct {
	ws     io.WriteSeeker
	bo     binary.ByteOrder
	opts   PyramidOpts
	levels []*levelWriter
	off    int64 // file position; the writer goroutine's until it is joined
	closed bool

	// Every job is in at most one of the three queues' buffers at a time
	// and each holds them all, so no send below ever blocks.
	free  chan *tileJob // buffers the producer may fill
	work  chan *tileJob // packed tiles waiting for deflate
	order chan *tileJob // every cut tile in cut order, for the writer goroutine

	zfree   chan *zlib.Writer // idle compressors, one per concurrent deflate at most
	helpers sync.WaitGroup    // deflate helpers started on opts.Runner
	written chan struct{}     // closed when the writer goroutine exits

	err atomic.Pointer[error] // first failure; tiles after it are dropped, not written

	stats     PyramidStats // producer-owned but for the atomic below
	deflateNS atomic.Int64
}

// errAborted is the failure Abort records so that queued tiles are
// dropped rather than compressed.
var errAborted = errors.New("tiffio: pyramid writer aborted")

// NewPyramidWriter starts a pyramid for a w×h full-resolution image on
// ws (typically an *os.File). The header is written immediately with a
// placeholder IFD offset that Close patches, so ws must support seeking.
func NewPyramidWriter(ws io.WriteSeeker, w, h int, opts PyramidOpts) (*PyramidWriter, error) {
	opts = opts.withDefaults()
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("tiffio: cannot write empty pyramid %dx%d", w, h)
	}
	if opts.TileW%16 != 0 || opts.TileH%16 != 0 || opts.TileW <= 0 || opts.TileH <= 0 {
		return nil, fmt.Errorf("tiffio: pyramid tile size %dx%d must be positive multiples of 16", opts.TileW, opts.TileH)
	}
	pw := &PyramidWriter{ws: ws, bo: byteOrder(opts.BigEndian), opts: opts}
	for _, d := range PyramidLevelDims(w, h, opts.MinSide) {
		lw := &levelWriter{
			w: d[0], h: d[1],
			buf:    make([]uint16, opts.TileH*d[0]),
			across: (d[0] + opts.TileW - 1) / opts.TileW,
			down:   (d[1] + opts.TileH - 1) / opts.TileH,
		}
		lw.offs = make([]uint64, 0, lw.across*lw.down)
		lw.cnts = make([]uint64, 0, lw.across*lw.down)
		pw.levels = append(pw.levels, lw)
	}
	n := opts.jobs()
	pw.free = make(chan *tileJob, n)
	pw.work = make(chan *tileJob, n)
	pw.order = make(chan *tileJob, n)
	pw.zfree = make(chan *zlib.Writer, n/2)
	for i := 0; i < n; i++ {
		j := &tileJob{raw: make([]byte, opts.TileW*opts.TileH*2), done: make(chan struct{}, 1)}
		if !opts.NoDeflate {
			j.z = make([]byte, 0, deflateBound(len(j.raw)))
		}
		pw.free <- j
	}

	if err := pw.write(bigTIFF.header(pw.bo, 0)); err != nil { // patched by Close
		return nil, err
	}
	pw.written = make(chan struct{})
	go pw.writeLoop()
	return pw, nil
}

// NumLevels reports the number of pyramid levels.
func (pw *PyramidWriter) NumLevels() int { return len(pw.levels) }

// LevelDims returns the dimensions of level l.
func (pw *PyramidWriter) LevelDims(l int) (w, h int) {
	return pw.levels[l].w, pw.levels[l].h
}

func (pw *PyramidWriter) write(b []byte) error {
	n, err := pw.ws.Write(b)
	pw.off += int64(n)
	return err
}

// WriteRows appends n rows of pixels to level l. pix holds n*levelWidth
// samples in row-major order. Rows arrive top to bottom; a level must
// receive exactly its height in rows before Close.
func (pw *PyramidWriter) WriteRows(l int, pix []uint16, n int) error {
	if pw.closed {
		return fmt.Errorf("tiffio: pyramid writer is closed")
	}
	if l < 0 || l >= len(pw.levels) {
		return fmt.Errorf("tiffio: pyramid level %d of %d", l, len(pw.levels))
	}
	lv := pw.levels[l]
	if len(pix) != n*lv.w {
		return fmt.Errorf("tiffio: level %d row data is %d samples, want %d rows × %d", l, len(pix), n, lv.w)
	}
	if lv.rows+n > lv.h {
		return fmt.Errorf("tiffio: level %d overflows: %d+%d rows of %d", l, lv.rows, n, lv.h)
	}
	for r := 0; r < n; r++ {
		copy(lv.buf[lv.staged*lv.w:(lv.staged+1)*lv.w], pix[r*lv.w:(r+1)*lv.w])
		lv.staged++
		lv.rows++
		if lv.staged == pw.opts.TileH || lv.rows == lv.h {
			if err := pw.flushTileRow(lv); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushTileRow cuts the staged rows of lv into one row of tile jobs,
// zero-padded to full tile size at the right and bottom edges. Staging is
// reused by the next row, so every tile is copied out before it returns.
func (pw *PyramidWriter) flushTileRow(lv *levelWriter) error {
	tw := pw.opts.TileW
	for tx := 0; tx < lv.across; tx++ {
		if err := pw.failure(); err != nil {
			return err
		}
		j := pw.acquire()
		j.lv = lv
		packTile(j.raw, lv.buf[tx*tw:], lv.w, min(tw, lv.w-tx*tw), lv.staged, tw, pw.bo, !pw.opts.NoDeflate)
		pw.stats.Tiles++
		pw.order <- j
		if pw.opts.NoDeflate {
			j.payload = j.raw
			j.done <- struct{}{}
			continue
		}
		pw.work <- j
		pw.stats.MaxQueue = max(pw.stats.MaxQueue, len(pw.work))
		if pw.opts.Runner != nil {
			pw.helpers.Add(1)
			if !pw.opts.Runner.TryGo(pw.help) {
				pw.helpers.Done()
			}
		}
	}
	lv.staged = 0
	return nil
}

// acquire returns a job buffer for the producer to fill. When none is
// free the producer deflates queued tiles itself instead of waiting for
// a helper: that keeps its core busy, and it is the whole of the
// behaviour when there are no helpers. It cannot wait forever: if the
// queue is empty too, every job is with a helper or the writer
// goroutine, neither of which waits for the producer.
func (pw *PyramidWriter) acquire() *tileJob {
	for {
		select {
		case j := <-pw.free:
			return j
		default:
		}
		select {
		case j := <-pw.free:
			return j
		case j := <-pw.work:
			pw.deflate(j)
			pw.stats.CallerTiles++
		}
	}
}

// drain deflates queued tiles until the queue is empty and reports how
// many it did. It never waits.
func (pw *PyramidWriter) drain() (n int64) {
	for {
		select {
		case j := <-pw.work:
			pw.deflate(j)
			n++
		default:
			return n
		}
	}
}

// help is a deflate helper: it drains the queue and exits, so it never
// holds its Runner slot while waiting for anything.
func (pw *PyramidWriter) help() {
	defer pw.helpers.Done()
	pw.drain()
}

// deflate compresses j.raw into j.z as one independent zlib stream and
// marks the job final. After a failure it only marks it.
func (pw *PyramidWriter) deflate(j *tileJob) {
	if pw.failure() == nil {
		start := time.Now()
		var zw *zlib.Writer
		select {
		case zw = <-pw.zfree:
		default:
		}
		zw, z, err := deflateTile(zw, j.z[:0], j.raw)
		if err != nil {
			pw.fail(err)
		}
		select {
		case pw.zfree <- zw:
		default:
		}
		j.z, j.payload = z, z
		pw.deflateNS.Add(int64(time.Since(start)))
	}
	j.done <- struct{}{}
}

// writeLoop is the writer goroutine: it takes tiles in the order they
// were cut, waits for each to be final, appends it to the file and
// recycles its buffer. It holds no Runner slot. After a failure it keeps
// recycling buffers so that nobody blocks on it.
func (pw *PyramidWriter) writeLoop() {
	defer close(pw.written)
	for j := range pw.order {
		<-j.done
		if pw.failure() == nil {
			j.lv.offs = append(j.lv.offs, uint64(pw.off))
			j.lv.cnts = append(j.lv.cnts, uint64(len(j.payload)))
			if err := pw.write(j.payload); err != nil {
				pw.fail(err)
			}
		}
		pw.free <- j
	}
}

// fail records err if it is the first failure.
func (pw *PyramidWriter) fail(err error) { pw.err.CompareAndSwap(nil, &err) }

// failure returns the first failure, nil while there is none.
func (pw *PyramidWriter) failure() error {
	if p := pw.err.Load(); p != nil {
		return *p
	}
	return nil
}

// join deflates what is still queued, then waits for the writer
// goroutine and the helpers to exit.
func (pw *PyramidWriter) join() {
	pw.closed = true
	pw.stats.CallerTiles += pw.drain()
	close(pw.order)
	<-pw.written
	pw.helpers.Wait()
}

// Abort abandons the pyramid: queued tiles are dropped and the writer's
// goroutines are joined. The file is left incomplete. A no-op after
// Close or Abort, so error paths can defer it.
func (pw *PyramidWriter) Abort() {
	if pw.closed {
		return
	}
	pw.fail(errAborted)
	pw.join()
}

// Stats reports what the writer did; call it after Close or Abort.
func (pw *PyramidWriter) Stats() PyramidStats {
	st := pw.stats
	st.DeflateBusy = time.Duration(pw.deflateNS.Load())
	return st
}

// Close waits for every tile to reach the file, reports the first
// failure if there was one, then writes the chained IFDs (one per level,
// in level order) and patches the header to point at level 0's IFD. It
// does not close the underlying file.
func (pw *PyramidWriter) Close() error {
	if pw.closed {
		return fmt.Errorf("tiffio: pyramid writer already closed")
	}
	pw.join()
	if err := pw.failure(); err != nil {
		return err
	}
	for l, lv := range pw.levels {
		if lv.rows != lv.h {
			return fmt.Errorf("tiffio: pyramid level %d received %d of %d rows", l, lv.rows, lv.h)
		}
		if len(lv.offs) != lv.across*lv.down {
			return fmt.Errorf("tiffio: pyramid level %d wrote %d tiles, want %d", l, len(lv.offs), lv.across*lv.down)
		}
	}

	compression := uint64(compressionDeflate)
	if pw.opts.NoDeflate {
		compression = compressionNone
	}
	first := uint64(pw.off)
	for l, lv := range pw.levels {
		subfile := 0
		if l > 0 {
			subfile = subfileReduced
		}
		fields := append([]field{one(tagNewSubfileType, typeLong, subfile)},
			bigTIFF.tiledFields(lv.w, lv.h, pw.opts.TileW, pw.opts.TileH, compression, lv.offs, lv.cnts)...)
		dir, err := bigTIFF.encodeDir(pw.bo, uint64(pw.off), fields, l+1 < len(pw.levels))
		if err != nil {
			return err
		}
		// The entries, then the arrays they point at: two writes per level
		// with tiles enough to need arrays, one per level without.
		head := bigTIFF.dirHead(len(fields))
		for _, b := range [][]byte{dir[:head], dir[head:]} {
			if len(b) == 0 {
				continue
			}
			if err := pw.write(b); err != nil {
				return err
			}
		}
	}
	if _, err := pw.ws.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := pw.ws.Write(bigTIFF.header(pw.bo, first)); err != nil {
		return err
	}
	_, err := pw.ws.Seek(pw.off, io.SeekStart)
	return err
}

// PyramidLevel describes one level of an opened pyramid.
type PyramidLevel struct {
	W, H         int
	TileW, TileH int
	Across, Down int

	dir *directory
}

// Pyramid is a random-access reader over a pyramid file written by
// PyramidWriter (BigTIFF, tiled levels). It is safe for concurrent use:
// all state is immutable after OpenPyramid and reads go through ReadAt.
type Pyramid struct {
	r      io.ReaderAt
	bo     binary.ByteOrder
	levels []PyramidLevel
}

// maxPyramidLevels bounds the IFD chain walk: a 2^40-pixel-per-side
// image needs 33 levels, so a longer chain is a corrupt (or adversarial)
// file, not a plate.
const maxPyramidLevels = 64

// OpenPyramid parses the level directory of a pyramid file. Tile data is
// read lazily by ReadTileAt.
func OpenPyramid(r io.ReaderAt) (*Pyramid, error) {
	p, err := openPyramid(r)
	if err != nil {
		return nil, &corruptError{err: err}
	}
	return p, nil
}

func openPyramid(r io.ReaderAt) (*Pyramid, error) {
	bo, next, err := bigTIFF.readHeader(r)
	if err != nil {
		return nil, err
	}
	p := &Pyramid{r: r, bo: bo}
	for next != 0 {
		if len(p.levels) >= maxPyramidLevels {
			return nil, fmt.Errorf("tiffio: IFD chain longer than %d levels", maxPyramidLevels)
		}
		d, err := bigTIFF.readDir(r, bo, next)
		if err != nil {
			return nil, err
		}
		if d.tileW == 0 || d.bits != 16 {
			return nil, fmt.Errorf("tiffio: pyramid level %d is not 16-bit tiles", len(p.levels))
		}
		p.levels = append(p.levels, PyramidLevel{W: d.w, H: d.h, TileW: d.tileW, TileH: d.tileH, Across: d.across, Down: d.down, dir: d})
		if d.next == next {
			return nil, fmt.Errorf("tiffio: IFD chain loops at %d", next)
		}
		next = d.next
	}
	// Levels must shrink monotonically: that is what makes the chain a
	// pyramid rather than an arbitrary multi-image file.
	for i := 1; i < len(p.levels); i++ {
		if p.levels[i].W > p.levels[i-1].W || p.levels[i].H > p.levels[i-1].H {
			return nil, fmt.Errorf("tiffio: level %d (%dx%d) larger than level %d (%dx%d)",
				i, p.levels[i].W, p.levels[i].H, i-1, p.levels[i-1].W, p.levels[i-1].H)
		}
	}
	return p, nil
}

// NumLevels reports the number of pyramid levels.
func (p *Pyramid) NumLevels() int { return len(p.levels) }

// Level returns the description of level l.
func (p *Pyramid) Level(l int) PyramidLevel { return p.levels[l] }

// checkTile validates a (level, tx, ty) address.
func (p *Pyramid) checkTile(l, tx, ty int) (*PyramidLevel, int, error) {
	if l < 0 || l >= len(p.levels) {
		return nil, 0, fmt.Errorf("tiffio: pyramid level %d of %d", l, len(p.levels))
	}
	lv := &p.levels[l]
	if tx < 0 || ty < 0 || tx >= lv.Across || ty >= lv.Down {
		return nil, 0, fmt.Errorf("tiffio: tile (%d,%d) outside level %d's %dx%d grid", tx, ty, l, lv.Down, lv.Across)
	}
	return lv, ty*lv.Across + tx, nil
}

// TilePayload returns the stored (possibly compressed) bytes of one
// tile — the unit the tile server content-addresses: identical payloads
// (blank regions deflate identically) hash to one cache entry.
func (p *Pyramid) TilePayload(l, tx, ty int) ([]byte, error) {
	lv, idx, err := p.checkTile(l, tx, ty)
	if err != nil {
		return nil, err
	}
	payload, err := lv.dir.readTile(p.r, idx, nil)
	if err != nil {
		return nil, &corruptError{err: fmt.Errorf("tiffio: tile (%d,%d,%d): %w", l, tx, ty, err)}
	}
	return payload, nil
}

// DecodePayload decodes a payload returned by TilePayload for level l
// into pixels, clipped to the level bounds (edge tiles come back smaller
// than TileW×TileH, which is what a deep-zoom client expects).
func (p *Pyramid) DecodePayload(l, tx, ty int, payload []byte) (*tile.Gray16, error) {
	lv, _, err := p.checkTile(l, tx, ty)
	if err != nil {
		return nil, err
	}
	err = lv.dir.checkTileBytes(uint64(len(payload)))
	var img *tile.Gray16
	if err == nil {
		img = tile.NewGray16(min(lv.TileW, lv.W-tx*lv.TileW), min(lv.TileH, lv.H-ty*lv.TileH))
		err = lv.dir.unpackTile(img.Pix, img.W, payload, tx, ty, p.bo)
	}
	if err != nil {
		return nil, &corruptError{err: fmt.Errorf("tiffio: tile (%d,%d,%d): %w", l, tx, ty, err)}
	}
	return img, nil
}

// ReadTileAt reads and decodes one tile, clipped to the level bounds.
func (p *Pyramid) ReadTileAt(l, tx, ty int) (*tile.Gray16, error) {
	payload, err := p.TilePayload(l, tx, ty)
	if err != nil {
		return nil, err
	}
	return p.DecodePayload(l, tx, ty, payload)
}

// Image assembles the whole of level l — for tests and overviews, not
// for terapixel level 0.
func (p *Pyramid) Image(l int) (*tile.Gray16, error) {
	if l < 0 || l >= len(p.levels) {
		return nil, fmt.Errorf("tiffio: pyramid level %d of %d", l, len(p.levels))
	}
	lv := &p.levels[l]
	if int64(lv.W)*int64(lv.H) > 1<<28 {
		return nil, fmt.Errorf("tiffio: level %d (%dx%d) too large to assemble in memory", l, lv.W, lv.H)
	}
	img, err := lv.dir.image(p.r, p.bo)
	if err != nil {
		return nil, &corruptError{err: fmt.Errorf("tiffio: level %d: %w", l, err)}
	}
	return img, nil
}

// PyramidFile is a Pyramid bound to an open file.
type PyramidFile struct {
	*Pyramid
	f *os.File
}

// OpenPyramidFile opens the pyramid at path. Close releases the file.
func OpenPyramidFile(path string) (*PyramidFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	p, err := OpenPyramid(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &PyramidFile{Pyramid: p, f: f}, nil
}

// Close releases the underlying file.
func (pf *PyramidFile) Close() error { return pf.f.Close() }
