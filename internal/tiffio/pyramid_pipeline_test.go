package tiffio

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/tile"
)

// These tests pin the writer's pipeline: whoever deflates a tile and in
// whatever order tiles finish, the file is the one the serial writer
// produced; a failure anywhere surfaces as the first error and leaves no
// goroutine (main_test.go) and no pool token behind.

// mixedImage is noise, a blank block and a ramp, so neighbouring tiles
// take very different times to deflate and finish out of order whenever
// more than one goroutine compresses.
func mixedImage(w, h int, seed int64) *tile.Gray16 {
	img := randImage(w, h, seed)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			switch {
			case y >= h/3 && y < 2*h/3 && x < w/2:
				img.Pix[y*w+x] = 0
			case y >= 2*h/3:
				img.Pix[y*w+x] = uint16(x*97 + y)
			}
		}
	}
	return img
}

// feed streams img and its halved levels into pw and closes it,
// returning the first error.
func feed(pw *PyramidWriter, img *tile.Gray16) error {
	cur := img
	for l := 0; l < pw.NumLevels(); l++ {
		if err := pw.WriteRows(l, cur.Pix, cur.H); err != nil {
			return err
		}
		if l+1 < pw.NumLevels() {
			cur = halveImage(cur)
		}
	}
	return pw.Close()
}

// lateRunner grants up to cap helpers but starts them late and the most
// recently granted first: a granted helper that has not run yet must not
// stall the producer, and tiles finish in an order unrelated to the order
// they were cut in.
type lateRunner struct {
	tokens chan struct{}
	mu     sync.Mutex
	held   []func()
	wg     sync.WaitGroup
}

func newLateRunner(n int) *lateRunner { return &lateRunner{tokens: make(chan struct{}, n)} }

func (r *lateRunner) Cap() int { return cap(r.tokens) }

func (r *lateRunner) TryGo(fn func()) bool {
	select {
	case r.tokens <- struct{}{}:
	default:
		return false
	}
	r.wg.Add(1)
	r.mu.Lock()
	r.held = append(r.held, fn)
	first, full := len(r.held) == 1, len(r.held) == cap(r.tokens)
	r.mu.Unlock()
	switch {
	case full:
		r.release()
	case first:
		time.AfterFunc(time.Millisecond, r.release)
	}
	return true
}

func (r *lateRunner) release() {
	r.mu.Lock()
	held := r.held
	r.held = nil
	r.mu.Unlock()
	for i := len(held) - 1; i >= 0; i-- {
		go func(fn func()) {
			defer r.wg.Done()
			fn()
			<-r.tokens
		}(held[i])
	}
}

// testRunners is every helper budget the identity tests run under; done
// checks that the budget came back whole.
func testRunners() map[string]func() (r Runner, done func(t *testing.T)) {
	pool := func(n int) func() (Runner, func(*testing.T)) {
		return func() (Runner, func(*testing.T)) {
			p := fft.NewWorkerPool(n)
			return p, func(t *testing.T) {
				p.Close()
				if got := p.Reserve(n); got != n {
					t.Errorf("%d of %d pool tokens came back", got, n)
				}
			}
		}
	}
	return map[string]func() (Runner, func(*testing.T)){
		"none":  func() (Runner, func(*testing.T)) { return nil, func(*testing.T) {} },
		"pool0": pool(0),
		"pool1": pool(1),
		"pool3": pool(3),
		"late3": func() (Runner, func(*testing.T)) {
			r := newLateRunner(3)
			return r, func(*testing.T) { r.wg.Wait() }
		},
	}
}

// goldenPyramids are the SHA-256 of the files the serial writer (the
// parent of the pipeline change) produced for mixedImage(331, 191, 42)
// at 48×32 tiles, MinSide 60, keyed {NoDeflate, BigEndian}. The deflate
// ones also pin compress/flate's output (go1.24); if a toolchain changes
// that, re-bless them — the equality across runners below is the
// invariant that must never move.
var goldenPyramids = map[[2]bool]string{
	{false, false}: "743732d9c0de0c0a98994d6092b5ca52dda790e2e04b570ef2e70a5becce557c",
	{false, true}:  "dd0dc3cc74907d55406158df4849c4162cfa0ff36b528c3994d750ec4cb93c0d",
	{true, false}:  "c1150262e473524272d39c468e742d8a03958ac77ef684ce7af8b4c280e8fa1e",
	{true, true}:   "9d7f9a9199fafa8faa3b5eb74cd0ee8dd34588efa57ef39398cd15c6064d23e4",
}

func TestPyramidBytesIndependentOfRunner(t *testing.T) {
	img := mixedImage(331, 191, 42) // divisible by neither tile dimension
	for key, want := range goldenPyramids {
		for name, mk := range testRunners() {
			t.Run(fmt.Sprintf("nodeflate=%v_bigendian=%v_%s", key[0], key[1], name), func(t *testing.T) {
				run, done := mk()
				data := writePyramidFromImage(t, img, PyramidOpts{
					TileW: 48, TileH: 32, MinSide: 60, NoDeflate: key[0], BigEndian: key[1], Runner: run,
				})
				done(t)
				if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
					t.Fatalf("file SHA-256 %s, the serial writer's is %s", got, want)
				}
			})
		}
	}
}

func TestPyramidStats(t *testing.T) {
	img := mixedImage(200, 120, 5)
	var sb seekBuffer
	pw, err := NewPyramidWriter(&sb, img.W, img.H, PyramidOpts{TileW: 32, TileH: 32, MinSide: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(pw, img); err != nil {
		t.Fatal(err)
	}
	// Levels 200×120, 100×60, 50×30 at 32×32 tiles: 7·4 + 4·2 + 2·1.
	st := pw.Stats()
	if st.Tiles != 38 || st.CallerTiles != 38 {
		t.Fatalf("no runner: cut %d tiles, the producer deflated %d; want 38 and 38", st.Tiles, st.CallerTiles)
	}
	if st.DeflateBusy <= 0 || st.MaxQueue < 1 || st.MaxQueue > pw.opts.jobs() {
		t.Fatalf("busy %v, max queue %d of %d jobs", st.DeflateBusy, st.MaxQueue, pw.opts.jobs())
	}
}

// failingWriter fails its k-th Write.
type failingWriter struct {
	seekBuffer
	k, writes int
}

var errInjected = errors.New("injected write failure")

func (f *failingWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes == f.k {
		return 0, errInjected
	}
	return f.seekBuffer.Write(p)
}

func TestPyramidWriteFailureSurfacesAndTearsDown(t *testing.T) {
	img := mixedImage(200, 120, 8)
	opts := PyramidOpts{TileW: 32, TileH: 32, MinSide: 64}
	count := &failingWriter{}
	pw, err := NewPyramidWriter(count, img.W, img.H, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(pw, img); err != nil {
		t.Fatal(err)
	}
	n := count.writes // header, tiles, IFDs, header patch

	for _, name := range []string{"none", "pool3", "late3"} {
		for _, k := range []int{1, 2, n / 2, n - 1, n} {
			t.Run(fmt.Sprintf("%s_write%dof%d", name, k, n), func(t *testing.T) {
				run, done := testRunners()[name]()
				o := opts
				o.Runner = run
				pw, err := NewPyramidWriter(&failingWriter{k: k}, img.W, img.H, o)
				if err == nil {
					err = feed(pw, img)
					pw.Abort() // what an error path does; nothing after a Close
					if pw.WriteRows(0, nil, 0) == nil {
						t.Error("WriteRows accepted rows after the writer was torn down")
					}
				}
				done(t)
				if !errors.Is(err, errInjected) {
					t.Fatalf("err = %v, want the injected failure", err)
				}
			})
		}
	}
}

func TestPyramidAbortDropsQueuedTiles(t *testing.T) {
	// An abandoned writer joins its goroutines without compressing what
	// is still queued, and refuses a later Close.
	img := mixedImage(200, 120, 9)
	run, done := testRunners()["pool1"]()
	var sb seekBuffer
	pw, err := NewPyramidWriter(&sb, img.W, img.H, PyramidOpts{TileW: 32, TileH: 32, MinSide: 64, Runner: run})
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.WriteRows(0, img.Pix[:64*img.W], 64); err != nil {
		t.Fatal(err)
	}
	pw.Abort()
	pw.Abort()
	done(t)
	if err := pw.Close(); err == nil {
		t.Fatal("Close after Abort succeeded")
	}
}

func TestBufferBytesCoversAllocations(t *testing.T) {
	// What PyramidOpts.BufferBytes promises callers that budget memory is
	// at least what a writer really holds, after incompressible data has
	// had every chance to outgrow the deflate bound.
	img := randImage(333, 97, 3)
	for _, nd := range []bool{false, true} {
		for name, mk := range testRunners() {
			t.Run(fmt.Sprintf("nodeflate=%v_%s", nd, name), func(t *testing.T) {
				run, done := mk()
				opts := PyramidOpts{TileW: 64, TileH: 48, MinSide: 100, NoDeflate: nd, Runner: run}
				var sb seekBuffer
				pw, err := NewPyramidWriter(&sb, img.W, img.H, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := feed(pw, img); err != nil {
					t.Fatal(err)
				}
				done(t)
				var staging, jobs int64
				for _, lv := range pw.levels {
					staging += int64(2 * cap(lv.buf))
				}
				if len(pw.free) != opts.jobs() {
					t.Fatalf("%d of %d job buffers came back", len(pw.free), opts.jobs())
				}
				for len(pw.free) > 0 {
					j := <-pw.free
					jobs += int64(cap(j.raw) + cap(j.z))
				}
				wantStaging, wantJobs := opts.BufferBytes(img.W, img.H)
				if staging > wantStaging || jobs > wantJobs {
					t.Fatalf("writer holds %d staging + %d job bytes, BufferBytes says %d + %d",
						staging, jobs, wantStaging, wantJobs)
				}
			})
		}
	}
}
