package compose

import (
	"fmt"

	"hybridstitch/internal/global"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tile"
)

// The oracles the band engine is held to: the whole-plate in-memory
// blend loop, and the recursive in-memory pyramid over its output. They
// share no code with the engine but feather, and every engine test
// compares against them with ==.

// composeOracle blends every tile of the placement into one resident
// plate, in grid order.
func composeOracle(pl *global.Placement, src stitch.Source, blend Blend) (*tile.Gray16, error) {
	w, h := pl.Bounds()
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("compose: degenerate composite %dx%d", w, h)
	}
	g := pl.Grid
	out := tile.NewGray16(w, h)

	switch blend {
	case BlendOverlay:
		for i := 0; i < g.NumTiles(); i++ {
			t, err := src.ReadTile(g.CoordOf(i))
			if err != nil {
				return nil, err
			}
			x0, y0 := pl.X[i], pl.Y[i]
			for y := 0; y < t.H; y++ {
				copy(out.Pix[(y0+y)*w+x0:(y0+y)*w+x0+t.W], t.Pix[y*t.W:(y+1)*t.W])
			}
		}
	case BlendAverage, BlendLinear:
		acc := make([]float64, w*h)
		wgt := make([]float64, w*h)
		for i := 0; i < g.NumTiles(); i++ {
			t, err := src.ReadTile(g.CoordOf(i))
			if err != nil {
				return nil, err
			}
			x0, y0 := pl.X[i], pl.Y[i]
			for y := 0; y < t.H; y++ {
				for x := 0; x < t.W; x++ {
					wt := 1.0
					if blend == BlendLinear {
						wt = feather(x, y, t.W, t.H)
					}
					idx := (y0+y)*w + x0 + x
					acc[idx] += wt * float64(t.Pix[y*t.W+x])
					wgt[idx] += wt
				}
			}
		}
		for i := range acc {
			if wgt[i] > 0 {
				v := acc[i] / wgt[i]
				if v > 65535 {
					v = 65535
				}
				out.Pix[i] = uint16(v)
			}
		}
	default:
		return nil, fmt.Errorf("compose: unknown blend %v", blend)
	}
	return out, nil
}

// Pyramid builds successive 2× downsampled levels of an image until both
// dimensions fall below minSide. Level 0 is the input itself.
func Pyramid(img *tile.Gray16, minSide int) []*tile.Gray16 {
	if minSide < 1 {
		minSide = 1
	}
	levels := []*tile.Gray16{img}
	cur := img
	for cur.W > minSide || cur.H > minSide {
		next := Downsample2x(cur)
		if next.W == cur.W && next.H == cur.H {
			break
		}
		levels = append(levels, next)
		cur = next
	}
	return levels
}

// Downsample2x box-filters an image to half resolution (rounding up).
func Downsample2x(img *tile.Gray16) *tile.Gray16 {
	w := (img.W + 1) / 2
	h := (img.H + 1) / 2
	out := tile.NewGray16(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var sum, cnt int
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					sx, sy := 2*x+dx, 2*y+dy
					if sx < img.W && sy < img.H {
						sum += int(img.At(sx, sy))
						cnt++
					}
				}
			}
			// Round to nearest: plain sum/cnt truncates, a half-LSB
			// darkening bias that compounds across pyramid levels.
			out.Set(x, y, uint16((sum+cnt/2)/cnt))
		}
	}
	return out
}
