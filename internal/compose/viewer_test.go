package compose

import (
	"bytes"
	"runtime"
	"testing"

	"hybridstitch/internal/global"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
)

func TestViewerMatchesFullCompose(t *testing.T) {
	ds, src := genClean(t, 3, 4)
	pl := truthPlacement(ds)
	full, err := composeOracle(pl, src, BlendOverlay)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewViewer(pl, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	pw, ph := v.PlateBounds()
	if pw != full.W || ph != full.H {
		t.Fatalf("viewer bounds %dx%d vs composite %dx%d", pw, ph, full.W, full.H)
	}
	// Several viewports, including edge-clipping ones, must match the
	// full composite pixel for pixel.
	viewports := [][4]int{
		{0, 0, pw, ph},             // everything
		{10, 10, 40, 30},           // interior
		{pw - 20, ph - 15, 20, 15}, // bottom-right corner
		{pw - 5, 0, 30, 10},        // clips off the right edge
		{0, ph - 3, 10, 20},        // clips off the bottom
		{13, 7, 33, 21},            // odd offset and size
		{-9, -5, 30, 20},           // clips off the top-left
		{pw + 3, 0, 10, 10},        // entirely off the plate
		{47, 0, 2, ph},             // a column strip across every tile row
	}
	for _, vp := range viewports {
		x0, y0, w, h := vp[0], vp[1], vp[2], vp[3]
		got, err := v.Render(x0, y0, w, h)
		if err != nil {
			t.Fatal(err)
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				want := uint16(0)
				if x0+x >= 0 && y0+y >= 0 && x0+x < pw && y0+y < ph {
					want = full.At(x0+x, y0+y)
				}
				if got.At(x, y) != want {
					t.Fatalf("viewport %v pixel (%d,%d): got %d want %d", vp, x, y, got.At(x, y), want)
				}
			}
		}
	}
}

func TestViewportMatchesPyramidLevel(t *testing.T) {
	// A level-L viewport is the crop of the pyramid's level L at
	// (x0>>L, y0>>L), whatever the offset's parity: the viewport snaps to
	// the plate's 2^L grid, so plateview -level L and the tile server
	// show the same pixels for the same place.
	ds, src := genClean(t, 3, 4)
	pl := truthPlacement(ds)
	v, err := NewViewer(pl, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	pw, ph := v.PlateBounds()
	var sb writeSeekBuffer
	if err := ComposeSharded(pl, src, &sb, ShardedOpts{Blend: BlendOverlay, TileW: 16, TileH: 16, MinSide: 4}); err != nil {
		t.Fatal(err)
	}
	pyr, err := tiffio.OpenPyramid(bytes.NewReader(sb.buf))
	if err != nil {
		t.Fatal(err)
	}
	viewports := [][4]int{
		{0, 0, pw, ph},             // everything
		{16, 8, 40, 24},            // even offset
		{17, 9, 40, 24},            // odd offset
		{23, 0, 41, 31},            // odd x0 and odd size
		{pw - 35, 10, 35, 20},      // the right edge
		{10, ph - 37, 40, 37},      // the bottom edge
		{pw - 21, ph - 13, 40, 30}, // past the bottom-right corner
	}
	for level := 0; level <= 3; level++ {
		want, err := pyr.Image(level)
		if err != nil {
			t.Fatal(err)
		}
		for _, vp := range viewports {
			x0, y0, w, h := vp[0], vp[1], vp[2], vp[3]
			got, err := v.RenderScaled(x0, y0, w, h, level)
			if err != nil {
				t.Fatal(err)
			}
			if ow, oh := (w+1<<level-1)>>level, (h+1<<level-1)>>level; got.W != ow || got.H != oh {
				t.Fatalf("level %d viewport %v is %dx%d, want %dx%d", level, vp, got.W, got.H, ow, oh)
			}
			for j := 0; j < got.H; j++ {
				for i := 0; i < got.W; i++ {
					lx, ly := x0>>level+i, y0>>level+j
					px := uint16(0)
					if lx < want.W && ly < want.H {
						px = want.At(lx, ly)
					}
					if got.At(i, j) != px {
						t.Fatalf("level %d viewport %v pixel (%d,%d) = %d, pyramid level %d has %d",
							level, vp, i, j, got.At(i, j), level, px)
					}
				}
			}
		}
	}
}

func TestRenderMemoryBounded(t *testing.T) {
	// Neither the overview nor the in-memory composite holds the plate's
	// blend at full resolution: the overview allocates well under the
	// composite, and a blended Compose no more than its output plus one
	// band of accumulators.
	ds, pl := genPlate(t, 16, 16, 64, 128)
	src := &stitch.MemorySource{DS: ds}
	w, h := pl.Bounds()
	plateBytes := uint64(2 * w * h)
	allocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	v, err := NewViewer(pl, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var level int
	got := allocs(func() { _, level, err = v.Overview(256) })
	if err != nil || got >= plateBytes/4 {
		t.Fatalf("Overview(256) at level %d allocated %d bytes (err %v); a quarter of the %dx%d composite is %d",
			level, got, err, w, h, plateBytes/4)
	}
	t.Logf("Overview(256) at level %d allocated %d bytes; a quarter of the %dx%d composite is %d", level, got, w, h, plateBytes/4)

	opts := ShardedOpts{Blend: BlendLinear}.withDefaults()
	band := uint64(bandRowsFor(opts, w, h, 0)) * uint64(bytesPerBandRow(w, BlendLinear))
	if band >= uint64(16*w*h) {
		t.Fatalf("the %dx%d plate fits one band; pick a taller one", w, h)
	}
	const slack = 256 << 10 // page rounding of the large planes, read-ahead, bookkeeping
	got = allocs(func() { _, err = Compose(pl, src, BlendLinear) })
	if err != nil || got > plateBytes+band+slack {
		t.Fatalf("Compose allocated %d bytes (err %v); the output is %d and one band %d", got, err, plateBytes, band)
	}
	t.Logf("Compose(BlendLinear) allocated %d bytes; the output is %d and one band %d", got, plateBytes, band)
}

func TestViewerCacheBounded(t *testing.T) {
	ds, src := genClean(t, 3, 4)
	pl := truthPlacement(ds)
	v, err := NewViewer(pl, src, 3)
	if err != nil {
		t.Fatal(err)
	}
	pw, ph := v.PlateBounds()
	// Sweep the plate; cache must never exceed its bound.
	for x := 0; x < pw-8; x += 16 {
		if _, err := v.Render(x, 0, 8, ph); err != nil {
			t.Fatal(err)
		}
		if v.CacheLen() > 3 {
			t.Fatalf("cache grew to %d (bound 3)", v.CacheLen())
		}
	}
}

func TestViewerScaledAndOverview(t *testing.T) {
	ds, src := genClean(t, 2, 3)
	pl := truthPlacement(ds)
	v, _ := NewViewer(pl, src, 0)
	pw, ph := v.PlateBounds()
	img, err := v.RenderScaled(0, 0, pw, ph, 2)
	if err != nil {
		t.Fatal(err)
	}
	if img.W != (pw+3)/4 && img.W != pw/4 {
		t.Errorf("level-2 width %d from plate %d", img.W, pw)
	}
	ov, level, err := v.Overview(32)
	if err != nil {
		t.Fatal(err)
	}
	if ov.W > 32 || ov.H > 32 {
		t.Errorf("overview %dx%d exceeds 32", ov.W, ov.H)
	}
	if level < 1 {
		t.Errorf("level = %d for a plate larger than 32px", level)
	}
	if _, err := v.RenderScaled(0, 0, 8, 8, -1); err == nil {
		t.Error("negative level should fail")
	}
	if _, _, err := v.Overview(0); err == nil {
		t.Error("zero overview size should fail")
	}
}

func TestViewerErrors(t *testing.T) {
	ds, src := genClean(t, 2, 2)
	pl := truthPlacement(ds)
	if _, err := NewViewer(nil, src, 0); err == nil {
		t.Error("nil placement should fail")
	}
	v, _ := NewViewer(pl, src, 0)
	if _, err := v.Render(0, 0, 0, 5); err == nil {
		t.Error("empty viewport should fail")
	}
}

func TestSeamScoreDiscriminates(t *testing.T) {
	p := imagegen.DefaultParams(3, 3, 128, 96)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	src := &stitch.MemorySource{DS: ds}
	res, err := (&stitch.SimpleCPU{}).Run(src, stitch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := global.Solve(res, global.Options{RepairOutliers: true})
	if err != nil {
		t.Fatal(err)
	}
	goodRep, err := SeamScore(good, src)
	if err != nil {
		t.Fatal(err)
	}
	if goodRep.Mean < 0.85 {
		t.Errorf("good placement seam score %.3f", goodRep.Mean)
	}
	if goodRep.Evaluated != p.Grid.NumPairs() {
		t.Errorf("evaluated %d of %d pairs", goodRep.Evaluated, p.Grid.NumPairs())
	}

	// Corrupt the placement: shift the right column by 5 px.
	bad := &global.Placement{Grid: good.Grid,
		X: append([]int(nil), good.X...),
		Y: append([]int(nil), good.Y...)}
	for r := 0; r < 3; r++ {
		i := good.Grid.Index(tile.Coord{Row: r, Col: 2})
		bad.X[i] += 5
		bad.Y[i] += 4
	}
	badRep, err := SeamScore(bad, src)
	if err != nil {
		t.Fatal(err)
	}
	if badRep.Mean >= goodRep.Mean-0.05 {
		t.Errorf("corrupted placement scored %.3f vs good %.3f", badRep.Mean, goodRep.Mean)
	}
	if badRep.Worst.Coord.Col != 2 && badRep.Worst.Neighbor().Col != 2 {
		t.Errorf("worst seam %v does not involve the corrupted column", badRep.Worst)
	}
}

func TestSeamScoreErrors(t *testing.T) {
	if _, err := SeamScore(&global.Placement{}, nil); err == nil {
		t.Error("invalid placement should fail")
	}
}
