package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"hybridstitch/internal/compose"
	"hybridstitch/internal/fft"
	"hybridstitch/internal/global"
	"hybridstitch/internal/memgov"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
	"hybridstitch/internal/tileserve"
)

const (
	composeBudget = 64 << 20 // memgov budget for band sizing
	serveCache    = 16 << 20 // decoded-tile cache, about a quarter of the 1024-tile plate's level 0
)

// Layer names: the modules under internal/ that the spans and per-layer
// metrics are attributed to.
const (
	layerStitch    = "stitch"
	layerTiffio    = "tiffio"
	layerGlobal    = "global"
	layerCompose   = "compose"
	layerTileserve = "tileserve"
)

// pipeline holds what `stitch -dir D -impl pipelined-cpu -solver ls
// -compose-out P` followed by `plateview -serve` sets up once per
// process. tr and rec are nil in untraced runs, and then the program
// runs exactly the calls the CLIs make.
type pipeline struct {
	threads int
	planner *fft.Planner
	tr      *tracer
	rec     *obs.Recorder
}

func (p *pipeline) stitchOptions() stitch.Options {
	return stitch.Options{
		Threads: p.threads, FFTVariant: stitch.VariantReal, Planner: p.planner,
		Degrade: true, MaxRetries: 2, RetryBackoff: 5 * time.Millisecond, Obs: p.rec,
	}
}

// stitchRep is what one pass from tile directory to first served tile
// produced and how long its parts took.
type stitchRep struct {
	wall                         time.Duration
	phase1, phase2, phase3, open time.Duration
	p1, p3                       int // span ids of phase 1 and phase 3
	res                          *stitch.Result
	pl                           *global.Placement
	gov                          *memgov.Governor
	pyramidBytes                 int64
}

// timedSource records a decode span around every tile read.
type timedSource struct {
	stitch.Source
	tr     *tracer
	parent int
}

func (s timedSource) ReadTile(c tile.Coord) (*tile.Gray16, error) {
	id := s.tr.begin(s.parent, layerTiffio, "decode")
	defer s.tr.end(id)
	return s.Source.ReadTile(c)
}

// timedFile records a write span around every write to the pyramid file
// and counts the bytes.
type timedFile struct {
	f      *os.File
	tr     *tracer
	parent int
	bytes  int64
}

func (t *timedFile) Write(b []byte) (int, error) {
	id := t.tr.begin(t.parent, layerTiffio, "write")
	defer t.tr.end(id)
	n, err := t.f.Write(b)
	t.bytes += int64(n)
	return n, err
}

func (t *timedFile) Seek(off int64, whence int) (int64, error) { return t.f.Seek(off, whence) }

// traced wraps src so that its reads are recorded under parent; in an
// untraced run it returns src itself.
func (p *pipeline) traced(src stitch.Source, parent int) stitch.Source {
	if p.tr == nil {
		return src
	}
	return timedSource{src, p.tr, parent}
}

// composeFile is compose.ComposeShardedFile with a span-recording writer
// slipped under it in traced runs.
func (p *pipeline) composeFile(pl *global.Placement, src stitch.Source, path string, parent int, opts compose.ShardedOpts) (int64, error) {
	if p.tr == nil {
		return 0, compose.ComposeShardedFile(pl, src, path, opts)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	ws := &timedFile{f: f, tr: p.tr, parent: parent}
	if err := compose.ComposeSharded(pl, p.traced(src, parent), ws, opts); err != nil {
		f.Close()
		os.Remove(path)
		return 0, err
	}
	return ws.bytes, f.Close()
}

// stitchOnce runs src through phase 1, the least-squares solve and the
// out-of-core compose into a pyramid at path, reopens the pyramid and
// fetches the overview tile from a fresh tile server over HTTP.
func (p *pipeline) stitchOnce(src stitch.Source, path string) (*stitchRep, error) {
	rep := &stitchRep{}
	opts := p.stitchOptions()
	start := time.Now()
	root := p.tr.begin(-1, layerBench, "stitch-rep")
	defer p.tr.end(root)

	rep.p1 = p.tr.begin(root, layerStitch, "phase1")
	res, err := stitch.PipelinedCPU{}.Run(p.traced(src, rep.p1), opts)
	p.tr.end(rep.p1)
	if err != nil {
		return nil, fmt.Errorf("phase 1: %w", err)
	}
	rep.res, rep.phase1 = res, time.Since(start)

	t := time.Now()
	id := p.tr.begin(root, layerGlobal, "phase2")
	pl, err := global.SolveLeastSquares(res, global.LSOptions{Pool: opts.TransformPool(), Obs: p.rec})
	p.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("phase 2: %w", err)
	}
	rep.pl, rep.phase2 = pl, time.Since(t)

	t = time.Now()
	rep.gov = memgov.New(composeBudget, 0)
	if p.rec != nil {
		rep.gov.SetObs(p.rec)
	}
	rep.p3 = p.tr.begin(root, layerCompose, "phase3")
	rep.pyramidBytes, err = p.composeFile(pl, stitch.MaskDegraded(src, res), path, rep.p3,
		compose.ShardedOpts{Blend: compose.BlendOverlay, Gov: rep.gov, Rec: p.rec})
	p.tr.end(rep.p3)
	if err != nil {
		return nil, fmt.Errorf("phase 3: %w", err)
	}
	rep.phase3 = time.Since(t)

	t = time.Now()
	id = p.tr.begin(root, layerTiffio, "open-pyramid")
	pf, err := tiffio.OpenPyramidFile(path)
	p.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("reopening the pyramid: %w", err)
	}
	defer pf.Close()
	rep.open = time.Since(t)

	id = p.tr.begin(root, layerTileserve, "first-tile")
	err = firstTile(pf.Pyramid)
	p.tr.end(id)
	if err != nil {
		return nil, err
	}
	rep.wall = time.Since(start)
	return rep, nil
}

// firstTile starts a tile server on pyr and fetches the overview tile.
func firstTile(pyr *tiffio.Pyramid) error {
	ts := httptest.NewServer(tileserve.New(pyr, tileserve.Options{CacheBytes: serveCache}))
	defer ts.Close()
	resp, err := ts.Client().Get(fmt.Sprintf("%s/tile/%d/0/0", ts.URL, pyr.NumLevels()-1))
	if err != nil {
		return fmt.Errorf("fetching the overview tile: %w", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("fetching the overview tile: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("overview tile: %s", resp.Status)
	}
	return nil
}

// pyramidMatchesCompose reports whether level 0 of the pyramid at path
// hashes equal to the in-memory compose.Compose of the same placement.
func pyramidMatchesCompose(pl *global.Placement, src stitch.Source, path string) (bool, error) {
	want, err := compose.Compose(pl, src, compose.BlendOverlay)
	if err != nil {
		return false, err
	}
	wantSum := pixelSum(want)
	want = nil
	pf, err := tiffio.OpenPyramidFile(path)
	if err != nil {
		return false, err
	}
	defer pf.Close()
	got, err := pf.Image(0)
	if err != nil {
		return false, err
	}
	return pixelSum(got) == wantSum, nil
}

// pixelSum hashes an image's dimensions and pixels.
func pixelSum(img *tile.Gray16) [sha256.Size]byte {
	h := sha256.New()
	var dims [16]byte
	binary.LittleEndian.PutUint64(dims[:8], uint64(img.W))
	binary.LittleEndian.PutUint64(dims[8:], uint64(img.H))
	h.Write(dims[:])
	buf := make([]byte, 0, 1<<16)
	for _, v := range img.Pix {
		buf = binary.LittleEndian.AppendUint16(buf, v)
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
