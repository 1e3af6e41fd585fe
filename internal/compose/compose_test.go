package compose

import (
	"bytes"
	"image/png"
	"math"
	"path/filepath"
	"testing"

	"hybridstitch/internal/global"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
)

// truthPlacement builds a placement directly from dataset ground truth.
func truthPlacement(ds *imagegen.Dataset) *global.Placement {
	g := ds.Params.Grid
	pl := &global.Placement{Grid: g,
		X: append([]int(nil), ds.TruthX...),
		Y: append([]int(nil), ds.TruthY...)}
	minX, minY := pl.X[0], pl.Y[0]
	for i := range pl.X {
		if pl.X[i] < minX {
			minX = pl.X[i]
		}
		if pl.Y[i] < minY {
			minY = pl.Y[i]
		}
	}
	for i := range pl.X {
		pl.X[i] -= minX
		pl.Y[i] -= minY
	}
	return pl
}

func genClean(t *testing.T, rows, cols int) (*imagegen.Dataset, *stitch.MemorySource) {
	t.Helper()
	p := imagegen.DefaultParams(rows, cols, 48, 40)
	p.NoiseAmp = 0
	p.Vignetting = false
	ds, err := imagegen.GenerateWithPlate(p)
	if err != nil {
		t.Fatal(err)
	}
	return ds, &stitch.MemorySource{DS: ds}
}

func TestComposeOverlayMatchesPlate(t *testing.T) {
	// With clean tiles (no per-tile camera effects) and truth positions,
	// the overlay composite must equal the plate region it came from.
	ds, src := genClean(t, 3, 3)
	pl := truthPlacement(ds)
	out, err := Compose(pl, src, BlendOverlay)
	if err != nil {
		t.Fatal(err)
	}
	// Composite origin = min truth position on the plate. Sample each
	// tile's top-left region, which overlay order guarantees is not
	// overwritten by a later (east/south) tile even under jitter.
	minX, minY := ds.TruthX[0], ds.TruthY[0]
	for i := range ds.TruthX {
		if ds.TruthX[i] < minX {
			minX = ds.TruthX[i]
		}
		if ds.TruthY[i] < minY {
			minY = ds.TruthY[i]
		}
	}
	for i := range ds.Tiles {
		for y := 0; y < 20; y += 5 {
			for x := 0; x < 24; x += 5 {
				cx := ds.TruthX[i] - minX + x
				cy := ds.TruthY[i] - minY + y
				want := ds.Plate.At(ds.TruthX[i]+x, ds.TruthY[i]+y)
				if got := out.At(cx, cy); got != want {
					t.Fatalf("tile %d composite(%d,%d) = %d, plate = %d", i, cx, cy, got, want)
				}
			}
		}
	}
}

func TestComposeBlendsAgreeOnCleanData(t *testing.T) {
	// All blend modes reconstruct the same pixels when tiles agree
	// exactly in their overlaps.
	ds, src := genClean(t, 2, 3)
	pl := truthPlacement(ds)
	ov, err := Compose(pl, src, BlendOverlay)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Blend{BlendAverage, BlendLinear} {
		got, err := Compose(pl, src, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ov.Pix {
			if int(got.Pix[i])-int(ov.Pix[i]) > 1 || int(ov.Pix[i])-int(got.Pix[i]) > 1 {
				t.Fatalf("blend %v differs from overlay at %d: %d vs %d", b, i, got.Pix[i], ov.Pix[i])
			}
		}
	}
}

func TestComposeBounds(t *testing.T) {
	ds, src := genClean(t, 2, 2)
	pl := truthPlacement(ds)
	out, err := Compose(pl, src, BlendOverlay)
	if err != nil {
		t.Fatal(err)
	}
	w, h := pl.Bounds()
	if out.W != w || out.H != h {
		t.Errorf("composite %dx%d, bounds say %dx%d", out.W, out.H, w, h)
	}
	// Composite must be smaller than tiles side-by-side (overlap) but
	// bigger than one tile.
	g := ds.Params.Grid
	if out.W >= g.TileW*g.Cols || out.W <= g.TileW {
		t.Errorf("composite width %d implausible", out.W)
	}
}

func TestHighlightGrid(t *testing.T) {
	ds, src := genClean(t, 2, 2)
	pl := truthPlacement(ds)
	base, err := Compose(pl, src, BlendOverlay)
	if err != nil {
		t.Fatal(err)
	}
	img := HighlightGrid(base, pl)
	// Tile 0's outline corner must be the highlight color.
	c := img.RGBAAt(pl.X[0], pl.Y[0])
	if c.R != 255 || c.G != 64 {
		t.Errorf("outline pixel = %+v", c)
	}
}

func TestPyramid(t *testing.T) {
	img := tile.NewGray16(64, 48)
	for i := range img.Pix {
		img.Pix[i] = uint16(i)
	}
	levels := Pyramid(img, 8)
	if len(levels) < 3 {
		t.Fatalf("only %d levels", len(levels))
	}
	if levels[0] != img {
		t.Error("level 0 should be the input")
	}
	for i := 1; i < len(levels); i++ {
		prev, cur := levels[i-1], levels[i]
		if cur.W != (prev.W+1)/2 || cur.H != (prev.H+1)/2 {
			t.Errorf("level %d is %dx%d, want half of %dx%d", i, cur.W, cur.H, prev.W, prev.H)
		}
	}
	last := levels[len(levels)-1]
	if last.W > 8 && last.H > 8 {
		t.Errorf("last level %dx%d above minSide", last.W, last.H)
	}
}

func TestDownsamplePreservesMean(t *testing.T) {
	img := tile.NewGray16(32, 32)
	for i := range img.Pix {
		img.Pix[i] = uint16(i * 13 % 4096)
	}
	down := Downsample2x(img)
	if math.Abs(down.Mean()-img.Mean()) > 2 {
		t.Errorf("downsample mean %g vs %g", down.Mean(), img.Mean())
	}
	// Odd dimensions round up.
	odd := tile.NewGray16(5, 3)
	d := Downsample2x(odd)
	if d.W != 3 || d.H != 2 {
		t.Errorf("odd downsample %dx%d", d.W, d.H)
	}
}

func TestWritePNG(t *testing.T) {
	img := tile.NewGray16(10, 8)
	img.Set(3, 2, 40000)
	var buf bytes.Buffer
	if err := WritePNG(&buf, img); err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Bounds().Dx() != 10 || decoded.Bounds().Dy() != 8 {
		t.Errorf("decoded bounds %v", decoded.Bounds())
	}
}

func TestWriteFiles(t *testing.T) {
	dir := t.TempDir()
	ds, src := genClean(t, 2, 2)
	pl := truthPlacement(ds)
	out, err := Compose(pl, src, BlendOverlay)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePNGFile(filepath.Join(dir, "plate.png"), out); err != nil {
		t.Fatal(err)
	}
	if err := WriteRGBAPNGFile(filepath.Join(dir, "grid.png"), HighlightGrid(out, pl)); err != nil {
		t.Fatal(err)
	}
	if err := WritePNGFile(filepath.Join(dir, "missing", "x.png"), out); err == nil {
		t.Error("writing into a missing directory should fail")
	}
}

func TestComposeEndToEnd(t *testing.T) {
	// The full three phases: stitch, solve, compose, at the tile scale
	// PCIAM is reliable at (see the pciam tests).
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
	pl, err := global.Solve(res, global.Options{RepairOutliers: true})
	if err != nil {
		t.Fatal(err)
	}
	rms, err := global.RMSError(pl, ds.TruthX, ds.TruthY)
	if err != nil {
		t.Fatal(err)
	}
	if rms > 2.0 {
		t.Fatalf("placement RMS %.2f px", rms)
	}
	out, err := Compose(pl, src, BlendOverlay)
	if err != nil {
		t.Fatal(err)
	}
	if out.W == 0 || out.H == 0 {
		t.Fatal("empty composite")
	}
}

func TestStretch(t *testing.T) {
	img := tile.NewGray16(10, 10)
	for i := range img.Pix {
		img.Pix[i] = uint16(1000 + i*10) // narrow band 1000..1990
	}
	out, err := Stretch(img, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := out.Pix[0], out.Pix[0]
	for _, px := range out.Pix {
		if px < lo {
			lo = px
		}
		if px > hi {
			hi = px
		}
	}
	if lo != 0 || hi != 65535 {
		t.Errorf("stretched range [%d, %d], want full scale", lo, hi)
	}
	// Monotonicity: ordering of pixel values preserved.
	for i := 1; i < len(img.Pix); i++ {
		if img.Pix[i] > img.Pix[i-1] && out.Pix[i] < out.Pix[i-1] {
			t.Fatalf("stretch broke monotonicity at %d", i)
		}
	}
	if _, err := Stretch(img, 50, 10); err == nil {
		t.Error("inverted percentiles should fail")
	}
	// Degenerate constant image: unchanged.
	flat := tile.NewGray16(4, 4)
	for i := range flat.Pix {
		flat.Pix[i] = 77
	}
	same, err := Stretch(flat, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	if same.Pix[0] != 77 {
		t.Error("constant image should pass through")
	}
}

func TestPercentile(t *testing.T) {
	img := tile.NewGray16(10, 1)
	for i := range img.Pix {
		img.Pix[i] = uint16(i * 100)
	}
	if p := Percentile(img, 0); p != 0 {
		t.Errorf("P0 = %d", p)
	}
	if p := Percentile(img, 100); p != 900 {
		t.Errorf("P100 = %d", p)
	}
	if p := Percentile(img, 50); p != 400 && p != 500 {
		t.Errorf("P50 = %d", p)
	}
	if p := Percentile(tile.NewGray16(0, 0), 50); p != 0 {
		t.Errorf("empty percentile = %d", p)
	}
}

func TestWriteTIFFFile(t *testing.T) {
	dir := t.TempDir()
	ds, src := genClean(t, 2, 2)
	pl := truthPlacement(ds)
	out, err := Compose(pl, src, BlendOverlay)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "plate.tif")
	if err := WriteTIFFFile(path, out); err != nil {
		t.Fatal(err)
	}
	back, err := tiffio.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != out.W || back.H != out.H {
		t.Fatalf("TIFF round trip dims %dx%d vs %dx%d", back.W, back.H, out.W, out.H)
	}
	for i := range out.Pix {
		if back.Pix[i] != out.Pix[i] {
			t.Fatal("TIFF round trip corrupted the composite")
		}
	}
	if err := WriteTIFFFile(filepath.Join(dir, "no", "x.tif"), out); err == nil {
		t.Error("missing directory should fail")
	}
}
