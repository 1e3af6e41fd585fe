package compose

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"testing"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/global"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/memgov"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
)

// These tests pin phase 3 as a pipeline: the pyramid file does not depend
// on how many helpers read ahead and deflate, a failure in either stage
// comes back as the first error with every goroutine joined
// (main_test.go) and every pool token returned, and what the stages hold
// in flight is charged to the memory governor.

// requireTokensBack waits for the pool's helpers to finish handing their
// tokens back and checks none is missing.
func requireTokensBack(t *testing.T, pool *fft.WorkerPool) {
	t.Helper()
	pool.Close()
	if got := pool.Reserve(pool.Cap()); got != pool.Cap() {
		t.Errorf("%d of %d pool tokens came back", got, pool.Cap())
	}
}

// testPools is every helper budget the identity tests run under: the
// default (nil: the shared pool, empty under -cpu 1) and private pools.
func testPools() map[string]*fft.WorkerPool {
	return map[string]*fft.WorkerPool{
		"shared": nil,
		"pool0":  fft.NewWorkerPool(0),
		"pool1":  fft.NewWorkerPool(1),
		"pool3":  fft.NewWorkerPool(3),
	}
}

func genPlate(t testing.TB, rows, cols, tileW, tileH int) (*imagegen.Dataset, *global.Placement) {
	t.Helper()
	ds, err := imagegen.Generate(imagegen.DefaultParams(rows, cols, tileW, tileH))
	if err != nil {
		t.Fatal(err)
	}
	return ds, truthPlacement(ds)
}

func TestShardedFileIdenticalAcrossPools(t *testing.T) {
	// SHA-256 of the files the serial compositor (the parent of the
	// pipeline change) wrote for the 4×5 plate of 64×48 tiles below,
	// keyed by blend and NoDeflate; the deflate ones were re-blessed once
	// when tiffio's chunk codec took Predictor=2 at BestSpeed. They also
	// pin compress/flate's output (go1.24); equality across pools is the
	// invariant that must never move.
	type key struct {
		blend     Blend
		noDeflate bool
	}
	golden := map[key]string{
		{BlendOverlay, false}: "84250182c63955fb760d68e36a4333ed79ddcd7bf185425ae0d451e76ea26676",
		{BlendOverlay, true}:  "47ac11e37faecb4400777df58d5f187b3fbfa7011a8294a1039879d4d73710c2",
		{BlendLinear, false}:  "409da63e2ffc980db19a409c783761cb2ca55c75abc54b50c53660d70838fb75",
		{BlendLinear, true}:   "e5b5ac1d846f8572c71556d39a4a87193e07a4262df607bfdd962f500802c992",
	}
	ds, pl := genPlate(t, 4, 5, 64, 48)
	if w, h := pl.Bounds(); w%48 == 0 || h%32 == 0 || h%64 == 0 {
		t.Fatalf("plate %dx%d divides evenly into tiles or bands; pick another", w, h)
	}
	for k, want := range golden {
		for name, pool := range testPools() {
			t.Run(fmt.Sprintf("%v_nodeflate=%v_%s", k.blend, k.noDeflate, name), func(t *testing.T) {
				var sb writeSeekBuffer
				err := ComposeSharded(pl, &stitch.MemorySource{DS: ds}, &sb, ShardedOpts{
					Blend: k.blend, NoDeflate: k.noDeflate, Pool: pool,
					TileW: 48, TileH: 32, MinSide: 50, BandRows: 64,
				})
				if err != nil {
					t.Fatal(err)
				}
				if pool != nil {
					requireTokensBack(t, pool)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(sb.buf)); got != want {
					t.Fatalf("file SHA-256 %s, the serial compositor's is %s", got, want)
				}
			})
		}
	}
}

func TestShardedGoldenPlates(t *testing.T) {
	// The two bench/ plates, whole file against the serial compositor's
	// (deflate entries re-blessed with tiffio's Predictor=2 + BestSpeed
	// codec), on the shared pool and on three helpers.
	if testing.Short() || raceBuild {
		t.Skip("composes ~75 Mpx; skipped with -short and under the race detector")
	}
	for _, tc := range []struct {
		rows, cols, tileW, tileH int
		want                     string
	}{
		{32, 32, 256, 192, "783ad6b8642e3ac29f4d7d78a821a7686cd0665d4dc29bb8613cc3ca86240338"},
		{4, 4, 1392, 1040, "9d083ea4b8b2f0a4c75d08d163d8c282013a0c3bb833fa7f70eb212122710ed8"},
	} {
		ds, pl := genPlate(t, tc.rows, tc.cols, tc.tileW, tc.tileH)
		for name, pool := range map[string]*fft.WorkerPool{"shared": nil, "pool3": fft.NewWorkerPool(3)} {
			t.Run(fmt.Sprintf("%dx%dx%dx%d_%s", tc.rows, tc.cols, tc.tileW, tc.tileH, name), func(t *testing.T) {
				path := t.TempDir() + "/plate.ptif"
				err := ComposeShardedFile(pl, &stitch.MemorySource{DS: ds}, path, ShardedOpts{Blend: BlendOverlay, Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				h := sha256.New()
				if _, err := io.Copy(h, f); err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
					t.Fatalf("file SHA-256 %s, the serial compositor's is %s", got, tc.want)
				}
			})
		}
	}
}

// failingSource fails every tile from index k on, each with an error that
// names its tile, so a test can tell which failure came back.
type failingSource struct {
	stitch.Source
	k int
}

var errSource = errors.New("injected read failure")

func (s failingSource) ReadTile(c tile.Coord) (*tile.Gray16, error) {
	if i := s.Grid().Index(c); i >= s.k {
		return nil, fmt.Errorf("tile %d: %w", i, errSource)
	}
	return s.Source.ReadTile(c)
}

func TestShardedSourceFailure(t *testing.T) {
	// Helpers read ahead of the blend, so with tiles k, k+1, ... all
	// failing, a later one may well fail first in time; the error that
	// comes back is still tile k's, the first in blend order.
	ds, src := genNoisy(t, 3, 4)
	pl := truthPlacement(ds)
	n := ds.Params.Grid.NumTiles()
	for _, tokens := range []int{0, 3} {
		for _, k := range []int{0, n / 2, n - 1} {
			t.Run(fmt.Sprintf("pool%d_tile%d", tokens, k), func(t *testing.T) {
				pool := fft.NewWorkerPool(tokens)
				var sb writeSeekBuffer
				err := ComposeSharded(pl, failingSource{src, k}, &sb, ShardedOpts{
					Blend: BlendAverage, TileW: 16, TileH: 16, MinSide: 40, BandRows: 32, Pool: pool,
				})
				requireTokensBack(t, pool)
				if !errors.Is(err, errSource) || err.Error() != fmt.Sprintf("tile %d: %v", k, errSource) {
					t.Fatalf("err = %v, want tile %d's failure", err, k)
				}
			})
		}
	}
}

// failingSink fails its k-th Write.
type failingSink struct {
	writeSeekBuffer
	k, writes int
}

var errSink = errors.New("injected write failure")

func (f *failingSink) Write(p []byte) (int, error) {
	f.writes++
	if f.writes == f.k {
		return 0, errSink
	}
	return f.writeSeekBuffer.Write(p)
}

func TestShardedWriteFailure(t *testing.T) {
	ds, src := genNoisy(t, 3, 4)
	pl := truthPlacement(ds)
	opts := ShardedOpts{Blend: BlendOverlay, TileW: 16, TileH: 16, MinSide: 40, BandRows: 32}
	count := &failingSink{}
	if err := ComposeSharded(pl, src, count, opts); err != nil {
		t.Fatal(err)
	}
	n := count.writes // header, tiles, IFDs, header patch
	for _, tokens := range []int{0, 3} {
		for _, k := range []int{1, 2, n / 2, n - 1, n} {
			t.Run(fmt.Sprintf("pool%d_write%dof%d", tokens, k, n), func(t *testing.T) {
				o := opts
				o.Pool = fft.NewWorkerPool(tokens)
				err := ComposeSharded(pl, src, &failingSink{k: k}, o)
				requireTokensBack(t, o.Pool)
				if !errors.Is(err, errSink) {
					t.Fatalf("err = %v, want the injected failure", err)
				}
			})
		}
	}
}

// freshSource hands out a new tile per read and counts reads started.
type freshSource struct {
	grid    tile.Grid
	started atomic.Int64
}

func (s *freshSource) Grid() tile.Grid { return s.grid }
func (s *freshSource) ReadTile(c tile.Coord) (*tile.Gray16, error) {
	s.started.Add(1)
	t := tile.NewGray16(s.grid.TileW, s.grid.TileH)
	t.Pix[0] = uint16(s.grid.Index(c))
	return t, nil
}

func TestReadAheadStaysInsideWindow(t *testing.T) {
	// The read-ahead is charged for `window` tiles, so at no point may
	// more than that many have been read and not yet handed to the blend;
	// and whoever reads them, tiles come out in list order.
	grid := tile.Grid{Rows: 5, Cols: 8, TileW: 8, TileH: 4}
	order := make([]int, 0, grid.NumTiles())
	for i := grid.NumTiles() - 1; i >= 0; i -= 2 { // any list is a band
		order = append(order, i)
	}
	for _, tokens := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("pool%d", tokens), func(t *testing.T) {
			pool := fft.NewWorkerPool(tokens)
			src := &freshSource{grid: grid}
			window := readWindow(tokens + 1)
			ra := newReadAhead(src, grid, pool, window)
			for band := 0; band < 3; band++ {
				base := src.started.Load()
				ra.begin(order)
				for c, want := range order {
					got, err := ra.get(c)
					if err != nil {
						t.Fatal(err)
					}
					if int(got.Pix[0]) != want {
						t.Fatalf("position %d returned tile %d, want %d", c, got.Pix[0], want)
					}
					if ahead := src.started.Load() - base - int64(c); ahead > int64(window) {
						t.Fatalf("position %d: %d tiles read and not consumed, window is %d", c, ahead, window)
					}
				}
				if reads := src.started.Load() - base; reads != int64(len(order)) {
					t.Fatalf("band of %d tiles took %d reads", len(order), reads)
				}
			}
			ra.stop()
			requireTokensBack(t, pool)
		})
	}
}

func TestShardedChargeCoversPipelineBuffers(t *testing.T) {
	// The single memgov charge must be at least what the run holds: the
	// band, the writer's staging and in-flight jobs (what BufferBytes
	// reports is what the writer allocates — tiffio's
	// TestBufferBytesCoversAllocations), the reducer rows, and a window
	// of source tiles (TestReadAheadStaysInsideWindow).
	ds, src := genNoisy(t, 3, 4)
	pl := truthPlacement(ds)
	w, h := pl.Bounds()
	g := ds.Params.Grid
	for _, tokens := range []int{0, 1, 3} {
		for _, tileSize := range []int{16, 32} {
			t.Run(fmt.Sprintf("pool%d_tile%d", tokens, tileSize), func(t *testing.T) {
				pool := fft.NewWorkerPool(tokens)
				gov := memgov.New(1<<30, 0)
				var sb writeSeekBuffer
				err := ComposeSharded(pl, src, &sb, ShardedOpts{
					Blend: BlendLinear, TileW: tileSize, TileH: tileSize, MinSide: 40, BandRows: 2 * tileSize,
					Gov: gov, Pool: pool,
				})
				requireTokensBack(t, pool)
				if err != nil {
					t.Fatal(err)
				}
				staging, jobs := tiffio.PyramidOpts{TileW: tileSize, TileH: tileSize, MinSide: 40, Runner: pool}.BufferBytes(w, h)
				held := staging + jobs +
					int64(2*(tokens+1)*2*g.TileW*g.TileH) + // read-ahead: two source tiles per lane
					int64(2*tileSize*18*w) // band: output row + float accumulator and weight rows
				dims := tiffio.PyramidLevelDims(w, h, 40)
				for _, d := range dims[:len(dims)-1] {
					r := newRowReducer(d[0])
					held += int64(2 * (cap(r.pending) + cap(r.out)))
				}
				if _, peak, _, _ := gov.Stats(); peak < held {
					t.Fatalf("charged %d bytes, the run holds %d", peak, held)
				}
			})
		}
	}
}

func TestShardedShedsHelpersUnderTightBudget(t *testing.T) {
	// A 15-token pool would want 32 source tiles and 32 tile jobs in
	// flight; under TestShardedPeakWithinBudget's budget that is most of
	// the plate. The run must shed helpers instead of breaking the bound,
	// and still write the same file.
	ds, src := genNoisy(t, 4, 4)
	pl := truthPlacement(ds)
	w, h := pl.Bounds()
	budget := int64(16*w*h) / 4
	opts := ShardedOpts{Blend: BlendAverage, TileW: 16, TileH: 16, MinSide: 40}

	var want writeSeekBuffer
	opts.Pool = fft.NewWorkerPool(0)
	if err := ComposeSharded(pl, src, &want, opts); err != nil {
		t.Fatal(err)
	}
	gov := memgov.New(budget, 0)
	opts.Gov, opts.Pool = gov, fft.NewWorkerPool(15)
	var got writeSeekBuffer
	err := ComposeSharded(pl, src, &got, opts)
	requireTokensBack(t, opts.Pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, peak, _, _ := gov.Stats(); peak > budget {
		t.Fatalf("peak accounted bytes %d exceeds budget %d with 15 helpers on offer", peak, budget)
	}
	if !bytes.Equal(got.buf, want.buf) {
		t.Fatal("shedding helpers changed the file")
	}
}
