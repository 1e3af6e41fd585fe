// Package compose implements the third phase of stitching: assembling
// the full plate image from absolutely-positioned tiles (the paper's
// Fig 13), rendering variants with highlighted tile boundaries (Fig 14),
// and building the multi-resolution image pyramids of the visualization
// prototype described in the paper's future work. Composition runs on
// demand — the paper's system "composes and renders the composite image
// without saving it in 15 s" — so the compositor streams tiles rather
// than requiring them all resident.
package compose

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"os"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/global"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
)

// Blend selects how overlapping pixels combine.
type Blend int

const (
	// BlendOverlay writes tiles in grid order; later tiles overwrite
	// earlier ones in the overlap (the paper's Fig 13 uses an overlay
	// blend).
	BlendOverlay Blend = iota
	// BlendAverage averages all tiles covering a pixel.
	BlendAverage
	// BlendLinear feathers tiles with a distance-to-edge weight, hiding
	// seams under illumination mismatch.
	BlendLinear
)

func (b Blend) String() string {
	switch b {
	case BlendOverlay:
		return "overlay"
	case BlendAverage:
		return "average"
	case BlendLinear:
		return "linear"
	default:
		return fmt.Sprintf("Blend(%d)", int(b))
	}
}

// ComposeObs runs Compose under a "compose" span on the phase3 track of
// rec (nil rec composes without recording).
func ComposeObs(rec *obs.Recorder, pl *global.Placement, src stitch.Source, blend Blend) (*tile.Gray16, error) {
	w, h := pl.Bounds()
	sp := rec.StartSpan(obs.TrackPhase3, obs.SpanCompose,
		obs.String("blend", blend.String()),
		obs.String("size", fmt.Sprintf("%dx%d", w, h)))
	defer sp.End()
	return Compose(pl, src, blend)
}

// Compose assembles the composite image for a placement: the band
// engine over the whole plate into an image, so the blend accumulators
// are one band deep (ShardedOpts' default band), not the whole plate.
// Tiles are read ahead on the shared pool.
func Compose(pl *global.Placement, src stitch.Source, blend Blend) (*tile.Gray16, error) {
	w, h, err := plateBounds(pl, blend)
	if err != nil {
		return nil, err
	}
	opts := ShardedOpts{Blend: blend}.withDefaults()
	opts.BandRows = bandRowsFor(opts, w, h, 0)
	pool := fft.SharedPool()
	return render(pl, src, 0, 0, w, h, 0, opts, &laneRunner{pool: pool, n: pool.Cap()})
}

// feather is the linear-blend weight: distance to the nearest tile edge,
// normalized, floored so weights never vanish.
func feather(x, y, w, h int) float64 {
	dx := x + 1
	if w-x < dx {
		dx = w - x
	}
	dy := y + 1
	if h-y < dy {
		dy = h - y
	}
	d := dx
	if dy < d {
		d = dy
	}
	return float64(d)
}

// HighlightGrid renders a composite of pl with its tile boundaries
// marked (the paper's Fig 14) as an RGBA image: grayscale content with
// colored 1-pixel tile outlines.
func HighlightGrid(base *tile.Gray16, pl *global.Placement) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, base.W, base.H))
	for y := 0; y < base.H; y++ {
		for x := 0; x < base.W; x++ {
			v := uint8(base.At(x, y) >> 8)
			img.SetRGBA(x, y, color.RGBA{R: v, G: v, B: v, A: 255})
		}
	}
	outline := color.RGBA{R: 255, G: 64, B: 64, A: 255}
	g := pl.Grid
	for i := 0; i < g.NumTiles(); i++ {
		x0, y0 := pl.X[i], pl.Y[i]
		x1, y1 := x0+g.TileW-1, y0+g.TileH-1
		for x := x0; x <= x1; x++ {
			img.SetRGBA(x, y0, outline)
			img.SetRGBA(x, y1, outline)
		}
		for y := y0; y <= y1; y++ {
			img.SetRGBA(x0, y, outline)
			img.SetRGBA(x1, y, outline)
		}
	}
	return img
}

// WritePNG saves a 16-bit grayscale image as PNG.
func WritePNG(w io.Writer, img *tile.Gray16) error {
	gray := image.NewGray16(image.Rect(0, 0, img.W, img.H))
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			gray.SetGray16(x, y, color.Gray16{Y: img.At(x, y)})
		}
	}
	return png.Encode(w, gray)
}

// WritePNGFile saves img to path.
func WritePNGFile(path string, img *tile.Gray16) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePNG(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteRGBAPNGFile saves an RGBA image (highlight renders) to path.
func WriteRGBAPNGFile(path string, img *image.RGBA) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := png.Encode(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteTIFFFile saves a composite as 16-bit TIFF — the archival format
// bio-imaging pipelines expect downstream (the paper's Fiji comparison
// "composes and saves the large image" as TIFF). Large composites use
// the tiled layout so downstream viewers can random-access them.
func WriteTIFFFile(path string, img *tile.Gray16) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	opts := tiffio.EncodeOpts{}
	if img.W*img.H > 4<<20 {
		opts.TileW, opts.TileH = 256, 256
	}
	if err := tiffio.Encode(f, img, opts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
