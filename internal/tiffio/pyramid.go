package tiffio

import (
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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

// BigTIFF constants (the TIFF 6.0 supplement "BigTIFF").
const (
	bigtiffVersion    = 43
	typeLong8         = 16 // 64-bit unsigned
	tagNewSubfileType = 254
	subfileReduced    = 1 // bit 0: reduced-resolution version of another image
)

// PyramidOpts configures NewPyramidWriter.
type PyramidOpts struct {
	// TileW/TileH set the pyramid tile size (default 256×256; the spec
	// requires multiples of 16).
	TileW, TileH int
	// MinSide stops the level chain once both dimensions fit (default
	// 256). Matches compose.Pyramid's termination rule.
	MinSide int
	// NoDeflate stores tiles uncompressed. The default compresses each
	// tile independently with zlib (Compression=8) so readers can still
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
// This is the same chain compose.Pyramid builds in memory.
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
	mark   [2]byte
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
	pw := &PyramidWriter{ws: ws, bo: binary.LittleEndian, mark: [2]byte{'I', 'I'}, opts: opts}
	if opts.BigEndian {
		pw.bo = binary.BigEndian
		pw.mark = [2]byte{'M', 'M'}
	}
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

	// BigTIFF header: mark | 43 | offset size 8 | reserved 0 | IFD offset.
	hdr := make([]byte, 16)
	hdr[0], hdr[1] = pw.mark[0], pw.mark[1]
	pw.bo.PutUint16(hdr[2:4], bigtiffVersion)
	pw.bo.PutUint16(hdr[4:6], 8)
	pw.bo.PutUint16(hdr[6:8], 0)
	pw.bo.PutUint64(hdr[8:16], 0) // patched by Close
	if err := pw.write(hdr); err != nil {
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
	tw, th := pw.opts.TileW, pw.opts.TileH
	for tx := 0; tx < lv.across; tx++ {
		if err := pw.failure(); err != nil {
			return err
		}
		j := pw.acquire()
		j.lv = lv
		cols := min(tw, lv.w-tx*tw)
		if cols < tw || lv.staged < th {
			clear(j.raw)
		}
		for y := 0; y < lv.staged; y++ {
			src := lv.buf[y*lv.w+tx*tw:][:cols]
			dst := j.raw[2*y*tw:][:2*cols]
			if pw.opts.BigEndian {
				for x, v := range src {
					dst[2*x], dst[2*x+1] = byte(v>>8), byte(v)
				}
			} else {
				for x, v := range src {
					dst[2*x], dst[2*x+1] = byte(v), byte(v>>8)
				}
			}
		}
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

// sliceWriter appends to a byte slice.
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// deflate compresses j.raw into j.z as one independent zlib stream and
// marks the job final. After a failure it only marks it.
func (pw *PyramidWriter) deflate(j *tileJob) {
	if pw.failure() == nil {
		start := time.Now()
		sink := sliceWriter{j.z[:0]}
		var zw *zlib.Writer
		select {
		case zw = <-pw.zfree:
			zw.Reset(&sink)
		default:
			zw = zlib.NewWriter(&sink)
		}
		_, err := zw.Write(j.raw)
		if err == nil {
			err = zw.Close()
		}
		if err != nil {
			pw.fail(err)
		}
		select {
		case pw.zfree <- zw:
		default:
		}
		j.z, j.payload = sink.b, sink.b
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

// bigEntry is one BigTIFF IFD entry.
type bigEntry struct {
	tag, ftype uint16
	count      uint64
	value      uint64 // inline value or out-of-line offset
	array      []uint64
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
	// Precompute each IFD's position so the next-IFD chain can be
	// written in a single forward pass. Every entry array larger than 8
	// bytes goes out of line, directly after its IFD.
	const entryCount = 11
	ifdOff := make([]int64, len(pw.levels)+1)
	pos := pw.off
	for l, lv := range pw.levels {
		ifdOff[l] = pos
		pos += 8 + entryCount*20 + 8
		n := lv.across * lv.down
		if n > 1 {
			pos += 2 * 8 * int64(n) // offsets + counts arrays
		}
	}
	ifdOff[len(pw.levels)] = 0 // end of chain

	for l, lv := range pw.levels {
		subfile := uint64(0)
		if l > 0 {
			subfile = subfileReduced
		}
		n := uint64(lv.across * lv.down)
		entries := []bigEntry{
			{tag: tagNewSubfileType, ftype: typeLong, count: 1, value: subfile},
			{tag: tagImageWidth, ftype: typeLong, count: 1, value: uint64(lv.w)},
			{tag: tagImageLength, ftype: typeLong, count: 1, value: uint64(lv.h)},
			{tag: tagBitsPerSample, ftype: typeShort, count: 1, value: 16},
			{tag: tagCompression, ftype: typeShort, count: 1, value: compression},
			{tag: tagPhotometric, ftype: typeShort, count: 1, value: photometricMinIsBlack},
			{tag: tagSamplesPerPixel, ftype: typeShort, count: 1, value: 1},
			{tag: tagTileWidth, ftype: typeLong, count: 1, value: uint64(pw.opts.TileW)},
			{tag: tagTileLength, ftype: typeLong, count: 1, value: uint64(pw.opts.TileH)},
			{tag: tagTileOffsets, ftype: typeLong8, count: n, array: lv.offs},
			{tag: tagTileByteCounts, ftype: typeLong8, count: n, array: lv.cnts},
		}
		var arrays []byte
		arrayOff := ifdOff[l] + 8 + entryCount*20 + 8
		buf := make([]byte, 8+entryCount*20+8)
		pw.bo.PutUint64(buf[0:8], entryCount)
		for i := range entries {
			e := &entries[i]
			b := buf[8+i*20 : 8+(i+1)*20]
			pw.bo.PutUint16(b[0:2], e.tag)
			pw.bo.PutUint16(b[2:4], e.ftype)
			pw.bo.PutUint64(b[4:12], e.count)
			switch {
			case e.array != nil && len(e.array) == 1:
				pw.bo.PutUint64(b[12:20], e.array[0])
			case e.array != nil:
				pw.bo.PutUint64(b[12:20], uint64(arrayOff)+uint64(len(arrays)))
				for _, v := range e.array {
					var vb [8]byte
					pw.bo.PutUint64(vb[:], v)
					arrays = append(arrays, vb[:]...)
				}
			case e.ftype == typeShort:
				// Inline values are left-justified in the 8-byte field
				// regardless of byte order (BigTIFF follows TIFF 6.0 here).
				pw.bo.PutUint16(b[12:14], uint16(e.value))
			case e.ftype == typeLong:
				pw.bo.PutUint32(b[12:16], uint32(e.value))
			default:
				pw.bo.PutUint64(b[12:20], e.value)
			}
		}
		pw.bo.PutUint64(buf[8+entryCount*20:], uint64(ifdOff[l+1]))
		if err := pw.write(buf); err != nil {
			return err
		}
		if len(arrays) > 0 {
			if err := pw.write(arrays); err != nil {
				return err
			}
		}
	}

	// Patch the header's first-IFD offset.
	if _, err := pw.ws.Seek(8, io.SeekStart); err != nil {
		return err
	}
	var ob [8]byte
	pw.bo.PutUint64(ob[:], uint64(ifdOff[0]))
	if _, err := pw.ws.Write(ob[:]); err != nil {
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

	compression uint64
	offs, cnts  []uint64
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
	var hdr [16]byte
	if _, err := r.ReadAt(hdr[:8], 0); err != nil {
		return nil, fmt.Errorf("tiffio: short pyramid header: %w", err)
	}
	var bo binary.ByteOrder
	switch {
	case hdr[0] == 'I' && hdr[1] == 'I':
		bo = binary.LittleEndian
	case hdr[0] == 'M' && hdr[1] == 'M':
		bo = binary.BigEndian
	default:
		return nil, fmt.Errorf("tiffio: bad byte-order mark %q", hdr[:2])
	}
	if v := bo.Uint16(hdr[2:4]); v != bigtiffVersion {
		return nil, fmt.Errorf("tiffio: not a BigTIFF pyramid (version %d, want %d)", v, bigtiffVersion)
	}
	if _, err := r.ReadAt(hdr[4:16], 4); err != nil {
		return nil, fmt.Errorf("tiffio: short BigTIFF header: %w", err)
	}
	if sz := bo.Uint16(hdr[4:6]); sz != 8 {
		return nil, fmt.Errorf("tiffio: BigTIFF offset size %d, want 8", sz)
	}
	next := bo.Uint64(hdr[8:16])
	if next == 0 {
		return nil, fmt.Errorf("tiffio: pyramid has no IFDs")
	}

	p := &Pyramid{r: r, bo: bo}
	for next != 0 {
		if len(p.levels) >= maxPyramidLevels {
			return nil, fmt.Errorf("tiffio: IFD chain longer than %d levels", maxPyramidLevels)
		}
		if next > math.MaxInt64 {
			return nil, fmt.Errorf("tiffio: IFD offset %d out of range", next)
		}
		lv, n, err := readPyramidIFD(r, bo, int64(next))
		if err != nil {
			return nil, err
		}
		p.levels = append(p.levels, lv)
		if n == next {
			return nil, fmt.Errorf("tiffio: IFD chain loops at %d", n)
		}
		next = n
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

// readPyramidIFD parses one BigTIFF IFD into a level description.
func readPyramidIFD(r io.ReaderAt, bo binary.ByteOrder, off int64) (PyramidLevel, uint64, error) {
	var lv PyramidLevel
	var nb [8]byte
	if _, err := r.ReadAt(nb[:], off); err != nil {
		return lv, 0, fmt.Errorf("tiffio: IFD count: %w", err)
	}
	n := bo.Uint64(nb[:])
	if n == 0 || n > 64 {
		return lv, 0, fmt.Errorf("tiffio: implausible IFD entry count %d", n)
	}
	buf := make([]byte, n*20+8)
	if _, err := r.ReadAt(buf, off+8); err != nil {
		return lv, 0, fmt.Errorf("tiffio: IFD entries: %w", err)
	}
	next := bo.Uint64(buf[n*20:])

	var (
		bits, comp, spp uint64 = 1, compressionNone, 1
		offs, cnts      []uint64
	)
	readArray := func(ftype uint16, count uint64, inline []byte) ([]uint64, error) {
		sz := uint64(0)
		switch ftype {
		case typeShort:
			sz = 2
		case typeLong:
			sz = 4
		case typeLong8:
			sz = 8
		default:
			return nil, fmt.Errorf("tiffio: unsupported tile-array type %d", ftype)
		}
		total := sz * count
		if count == 0 || total > 256<<20 {
			return nil, fmt.Errorf("tiffio: tile array claims %d bytes", total)
		}
		data := inline[:min(8, len(inline))]
		if total > 8 {
			data = make([]byte, total)
			o := bo.Uint64(inline)
			if o > math.MaxInt64 {
				return nil, fmt.Errorf("tiffio: array offset %d out of range", o)
			}
			if _, err := r.ReadAt(data, int64(o)); err != nil {
				return nil, fmt.Errorf("tiffio: tile array: %w", err)
			}
		}
		vals := make([]uint64, count)
		for i := range vals {
			switch ftype {
			case typeShort:
				vals[i] = uint64(bo.Uint16(data[2*i:]))
			case typeLong:
				vals[i] = uint64(bo.Uint32(data[4*i:]))
			case typeLong8:
				vals[i] = bo.Uint64(data[8*i:])
			}
		}
		return vals, nil
	}
	scalar := func(ftype uint16, inline []byte) uint64 {
		switch ftype {
		case typeShort:
			return uint64(bo.Uint16(inline))
		case typeLong:
			return uint64(bo.Uint32(inline))
		default:
			return bo.Uint64(inline)
		}
	}
	for i := uint64(0); i < n; i++ {
		b := buf[i*20 : (i+1)*20]
		tag := bo.Uint16(b[0:2])
		ftype := bo.Uint16(b[2:4])
		count := bo.Uint64(b[4:12])
		inline := b[12:20]
		var err error
		switch tag {
		case tagImageWidth:
			lv.W = int(scalar(ftype, inline))
		case tagImageLength:
			lv.H = int(scalar(ftype, inline))
		case tagBitsPerSample:
			bits = scalar(ftype, inline)
		case tagCompression:
			comp = scalar(ftype, inline)
		case tagSamplesPerPixel:
			spp = scalar(ftype, inline)
		case tagTileWidth:
			lv.TileW = int(scalar(ftype, inline))
		case tagTileLength:
			lv.TileH = int(scalar(ftype, inline))
		case tagTileOffsets:
			offs, err = readArray(ftype, count, inline)
		case tagTileByteCounts:
			cnts, err = readArray(ftype, count, inline)
		}
		if err != nil {
			return lv, 0, err
		}
	}
	if bits != 16 || spp != 1 {
		return lv, 0, fmt.Errorf("tiffio: pyramid level is %d-bit ×%d samples, want 16-bit grayscale", bits, spp)
	}
	if comp != compressionNone && comp != compressionDeflate {
		return lv, 0, fmt.Errorf("tiffio: unsupported pyramid compression %d", comp)
	}
	if lv.W <= 0 || lv.H <= 0 || lv.W > 1<<30 || lv.H > 1<<30 {
		return lv, 0, fmt.Errorf("tiffio: implausible level dimensions %dx%d", lv.W, lv.H)
	}
	if lv.TileW <= 0 || lv.TileH <= 0 || lv.TileW > 1<<16 || lv.TileH > 1<<16 {
		return lv, 0, fmt.Errorf("tiffio: invalid tile size %dx%d", lv.TileW, lv.TileH)
	}
	lv.Across = (lv.W + lv.TileW - 1) / lv.TileW
	lv.Down = (lv.H + lv.TileH - 1) / lv.TileH
	want := lv.Across * lv.Down
	if len(offs) != want || len(cnts) != want {
		return lv, 0, fmt.Errorf("tiffio: %d tile offsets / %d counts for a %dx%d tile grid", len(offs), len(cnts), lv.Down, lv.Across)
	}
	lv.compression = comp
	lv.offs, lv.cnts = offs, cnts
	return lv, next, nil
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
	n := lv.cnts[idx]
	tileBytes := uint64(lv.TileW) * uint64(lv.TileH) * 2
	limit := tileBytes
	if lv.compression == compressionDeflate {
		limit = 2*tileBytes + 1024
	}
	if n == 0 || n > limit {
		return nil, &corruptError{err: fmt.Errorf("tiffio: tile (%d,%d,%d) claims %d bytes for a %d-byte tile", l, tx, ty, n, tileBytes)}
	}
	off := lv.offs[idx]
	if off > math.MaxInt64 {
		return nil, &corruptError{err: fmt.Errorf("tiffio: tile offset %d out of range", off)}
	}
	buf := make([]byte, n)
	if _, err := p.r.ReadAt(buf, int64(off)); err != nil {
		return nil, &corruptError{err: fmt.Errorf("tiffio: tile (%d,%d,%d): %w", l, tx, ty, err)}
	}
	return buf, nil
}

// DecodePayload decodes a payload returned by TilePayload for level l
// into pixels, clipped to the level bounds (edge tiles come back smaller
// than TileW×TileH, which is what a deep-zoom client expects).
func (p *Pyramid) DecodePayload(l, tx, ty int, payload []byte) (*tile.Gray16, error) {
	lv, _, err := p.checkTile(l, tx, ty)
	if err != nil {
		return nil, err
	}
	tileBytes := lv.TileW * lv.TileH * 2
	raw := payload
	if lv.compression == compressionDeflate {
		full := make([]byte, tileBytes)
		if err := inflateTile(full, payload); err != nil {
			return nil, &corruptError{err: fmt.Errorf("tiffio: tile (%d,%d,%d): %w", l, tx, ty, err)}
		}
		raw = full
	} else if len(raw) != tileBytes {
		return nil, &corruptError{err: fmt.Errorf("tiffio: tile payload is %d bytes, want %d", len(raw), tileBytes)}
	}
	w := min(lv.TileW, lv.W-tx*lv.TileW)
	h := min(lv.TileH, lv.H-ty*lv.TileH)
	img := tile.NewGray16(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.Pix[y*w+x] = p.bo.Uint16(raw[2*(y*lv.TileW+x):])
		}
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
	img := tile.NewGray16(lv.W, lv.H)
	for ty := 0; ty < lv.Down; ty++ {
		for tx := 0; tx < lv.Across; tx++ {
			t, err := p.ReadTileAt(l, tx, ty)
			if err != nil {
				return nil, err
			}
			x0, y0 := tx*lv.TileW, ty*lv.TileH
			for y := 0; y < t.H; y++ {
				copy(img.Pix[(y0+y)*lv.W+x0:(y0+y)*lv.W+x0+t.W], t.Pix[y*t.W:(y+1)*t.W])
			}
		}
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
