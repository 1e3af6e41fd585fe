package compose

import (
	"bytes"
	"fmt"
	"testing"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/global"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/memgov"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
)

// writeSeekBuffer is an in-memory io.WriteSeeker for sharded-compose
// tests.
type writeSeekBuffer struct {
	buf []byte
	pos int64
}

func (s *writeSeekBuffer) Write(p []byte) (int, error) {
	if need := s.pos + int64(len(p)); need > int64(len(s.buf)) {
		grown := make([]byte, need)
		copy(grown, s.buf)
		s.buf = grown
	}
	copy(s.buf[s.pos:], p)
	s.pos += int64(len(p))
	return len(p), nil
}

func (s *writeSeekBuffer) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case 0:
		s.pos = off
	case 1:
		s.pos += off
	case 2:
		s.pos = int64(len(s.buf)) + off
	}
	return s.pos, nil
}

// genNoisy produces tiles with per-tile camera effects so the blend
// modes genuinely disagree: bit-identity tests that pass on data where
// every blend produces the same pixels prove nothing.
func genNoisy(t *testing.T, rows, cols int) (*imagegen.Dataset, *stitch16Source) {
	t.Helper()
	p := imagegen.DefaultParams(rows, cols, 48, 40)
	ds, err := imagegen.GenerateWithPlate(p)
	if err != nil {
		t.Fatal(err)
	}
	return ds, &stitch16Source{ds: ds}
}

// stitch16Source adapts a dataset (stitch.MemorySource behavior without
// the import noise in every call site).
type stitch16Source struct{ ds *imagegen.Dataset }

func (s *stitch16Source) Grid() tile.Grid { return s.ds.Params.Grid }
func (s *stitch16Source) ReadTile(c tile.Coord) (*tile.Gray16, error) {
	return s.ds.Tiles[s.ds.Params.Grid.Index(c)], nil
}

// shardedPyramid runs ComposeSharded into memory and opens the result.
// It composes twice, on the default (shared) pool and on a 3-token pool
// of its own, and requires the same file from both, so every test built
// on it holds for both.
func shardedPyramid(t *testing.T, pl *global.Placement, src stitch.Source, opts ShardedOpts) *tiffio.Pyramid {
	t.Helper()
	var sb, sb3 writeSeekBuffer
	if err := ComposeSharded(pl, src, &sb, opts); err != nil {
		t.Fatal(err)
	}
	opts.Pool = fft.NewWorkerPool(3)
	err := ComposeSharded(pl, src, &sb3, opts)
	requireTokensBack(t, opts.Pool)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.buf, sb3.buf) {
		t.Fatal("a 3-token pool wrote a different file than the default pool")
	}
	p, err := tiffio.OpenPyramid(bytes.NewReader(sb.buf))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestShardedBitIdenticalToCompose(t *testing.T) {
	ds, src := genNoisy(t, 3, 4)
	pl := truthPlacement(ds)
	w, h := pl.Bounds()

	for _, blend := range []Blend{BlendOverlay, BlendAverage, BlendLinear} {
		// Band heights that do not divide the plate height, plus one that
		// exceeds it (single band) and the minimum (one tile row).
		for _, bandRows := range []int{16, 48, 10000} {
			t.Run(fmt.Sprintf("%v_band%d", blend, bandRows), func(t *testing.T) {
				want, err := composeOracle(pl, src, blend)
				if err != nil {
					t.Fatal(err)
				}
				mem, err := Compose(pl, src, blend)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Pix {
					if mem.Pix[i] != want.Pix[i] {
						t.Fatalf("blend %v: Compose pixel %d = %d, oracle = %d", blend, i, mem.Pix[i], want.Pix[i])
					}
				}
				p := shardedPyramid(t, pl, src, ShardedOpts{
					Blend: blend, TileW: 16, TileH: 16, MinSide: 40, BandRows: bandRows,
				})
				got, err := p.Image(0)
				if err != nil {
					t.Fatal(err)
				}
				if got.W != w || got.H != h {
					t.Fatalf("level 0 is %dx%d, want %dx%d", got.W, got.H, w, h)
				}
				for i := range want.Pix {
					if got.Pix[i] != want.Pix[i] {
						t.Fatalf("blend %v band %d: pixel %d = %d, oracle = %d",
							blend, bandRows, i, got.Pix[i], want.Pix[i])
					}
				}
			})
		}
	}
}

func TestShardedPyramidMatchesInMemoryPyramid(t *testing.T) {
	// The golden multi-level test the Downsample2x rounding fix shares
	// with the out-of-core reducer: every reduced level of the sharded
	// pyramid must equal recursive Downsample2x over the in-memory
	// composite, bit for bit — including odd-dimension levels where the
	// box filter sees 1- and 2-sample neighborhoods.
	ds, src := genNoisy(t, 3, 3)
	pl := truthPlacement(ds)
	full, err := composeOracle(pl, src, BlendAverage)
	if err != nil {
		t.Fatal(err)
	}
	const minSide = 20
	levels := Pyramid(full, minSide)

	p := shardedPyramid(t, pl, src, ShardedOpts{
		Blend: BlendAverage, TileW: 16, TileH: 16, MinSide: minSide, BandRows: 32,
	})
	if p.NumLevels() != len(levels) {
		t.Fatalf("pyramid has %d levels, in-memory has %d", p.NumLevels(), len(levels))
	}
	for l, want := range levels {
		got, err := p.Image(l)
		if err != nil {
			t.Fatalf("level %d: %v", l, err)
		}
		if got.W != want.W || got.H != want.H {
			t.Fatalf("level %d is %dx%d, want %dx%d", l, got.W, got.H, want.W, want.H)
		}
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("level %d pixel %d = %d, Downsample2x chain = %d", l, i, got.Pix[i], want.Pix[i])
			}
		}
	}
}

func TestDownsampleRoundsToNearest(t *testing.T) {
	// 2x2 block summing to 3 must round up to 1 (truncation gave 0), and
	// a block summing to 5 rounds to 1 (2.5 rounds... 5+2=7, 7/4=1).
	img := tile.NewGray16(2, 2)
	img.Pix = []uint16{1, 1, 1, 0}
	if got := Downsample2x(img).Pix[0]; got != 1 {
		t.Fatalf("round(3/4) = %d, want 1", got)
	}
	img.Pix = []uint16{65535, 65535, 65535, 65535}
	if got := Downsample2x(img).Pix[0]; got != 65535 {
		t.Fatalf("round(65535) = %d, want 65535", got)
	}
	// Odd edge: single-column pair (cnt=2) rounds (1+0+1)/2 = 1.
	img3 := tile.NewGray16(1, 2)
	img3.Pix = []uint16{1, 0}
	if got := Downsample2x(img3).Pix[0]; got != 1 {
		t.Fatalf("round(1/2) = %d, want 1", got)
	}
}

func TestShardedPeakWithinBudget(t *testing.T) {
	// A plate at least 4x the governor budget must compose with peak
	// accounted memory inside the budget: the whole point of sharding.
	ds, src := genNoisy(t, 4, 4)
	pl := truthPlacement(ds)
	w, h := pl.Bounds()
	plateBytes := int64(16 * w * h) // what in-memory blended compose accounts

	budget := plateBytes / 4
	gov := memgov.New(budget, 0)
	var sb writeSeekBuffer
	err := ComposeSharded(pl, src, &sb, ShardedOpts{
		Blend: BlendAverage, TileW: 16, TileH: 16, MinSide: 40, Gov: gov,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, peak, _, _ := gov.Stats()
	if peak > budget {
		t.Fatalf("peak accounted bytes %d exceeds budget %d (plate is %d)", peak, budget, plateBytes)
	}
	if peak == 0 {
		t.Fatal("sharded compose charged nothing to the governor")
	}
	// And the output is still exact.
	want, err := composeOracle(pl, src, BlendAverage)
	if err != nil {
		t.Fatal(err)
	}
	p, err := tiffio.OpenPyramid(bytes.NewReader(sb.buf))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Image(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("budget-sized bands broke bit-identity at pixel %d", i)
		}
	}
}

func TestShardedRecordsObs(t *testing.T) {
	ds, src := genNoisy(t, 2, 3)
	pl := truthPlacement(ds)
	rec := obs.New()
	defer rec.Close()
	var sb writeSeekBuffer
	err := ComposeSharded(pl, src, &sb, ShardedOpts{
		Blend: BlendOverlay, TileW: 16, TileH: 16, MinSide: 40, BandRows: 16, Rec: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	// The pipeline stages, from obs alone: every pyramid tile was cut
	// once, the caller deflated at most all of them, both busy clocks
	// ran, and the deflate queue was used.
	p, err := tiffio.OpenPyramid(bytes.NewReader(sb.buf))
	if err != nil {
		t.Fatal(err)
	}
	var tiles int64
	for l := 0; l < p.NumLevels(); l++ {
		tiles += int64(p.Level(l).Across * p.Level(l).Down)
	}
	if got := snap.Counters[obs.CounterComposeEncodeTiles]; got != tiles {
		t.Fatalf("%s = %d, the pyramid has %d tiles", obs.CounterComposeEncodeTiles, got, tiles)
	}
	if got := snap.Counters[obs.CounterComposeEncodeCallerTiles]; got < 0 || got > tiles {
		t.Fatalf("%s = %d of %d tiles", obs.CounterComposeEncodeCallerTiles, got, tiles)
	}
	if snap.Counters[obs.CounterComposeEncodeBusyNS] <= 0 || snap.Counters[obs.CounterComposeReadBusyNS] <= 0 {
		t.Fatalf("busy clocks: encode %d ns, read %d ns", snap.Counters[obs.CounterComposeEncodeBusyNS], snap.Counters[obs.CounterComposeReadBusyNS])
	}
	if _, depth := rec.Gauge(obs.GaugeComposeEncodeQueueDepth).Value(); depth < 1 {
		t.Fatalf("%s max = %v", obs.GaugeComposeEncodeQueueDepth, depth)
	}
	if snap.Counters[obs.CounterComposeBands] == 0 {
		t.Fatal("compose.band.count not recorded")
	}
	if snap.Counters[obs.CounterComposeBandTiles] < snap.Counters[obs.CounterComposeBands] {
		t.Fatalf("band tiles %d < bands %d", snap.Counters[obs.CounterComposeBandTiles], snap.Counters[obs.CounterComposeBands])
	}
	foundRoot, foundBand := false, false
	for _, sp := range rec.Spans() {
		switch sp.Name {
		case obs.SpanComposeSharded:
			foundRoot = true
		case obs.SpanComposeBand:
			foundBand = true
		}
	}
	if !foundRoot || !foundBand {
		t.Fatalf("missing spans: sharded=%v band=%v", foundRoot, foundBand)
	}
}

func TestShardedErrors(t *testing.T) {
	ds, src := genNoisy(t, 2, 2)
	pl := truthPlacement(ds)
	_ = ds
	var sb writeSeekBuffer
	if err := ComposeSharded(pl, src, &sb, ShardedOpts{Blend: Blend(99)}); err == nil {
		t.Fatal("unknown blend accepted")
	}
	if err := ComposeSharded(&global.Placement{Grid: pl.Grid}, src, &sb, ShardedOpts{}); err == nil {
		t.Fatal("degenerate placement accepted")
	}
}
