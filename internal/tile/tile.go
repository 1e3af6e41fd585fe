// Package tile defines the in-memory representation of microscope image
// tiles, the grid geometry that relates them, and the fused statistics
// kernels (mean, norm, dot product) that the cross-correlation stage
// needs. The original system hand-coded these with SSE intrinsics; here
// they are tight scalar loops the Go compiler can keep in registers.
package tile

import (
	"fmt"
	"math"
)

// Gray16 is a dense row-major 16-bit grayscale image — the native pixel
// format of the microscope cameras in the paper (1392×1040 16-bit tiles).
type Gray16 struct {
	W, H int
	Pix  []uint16 // len W*H, row-major
}

// NewGray16 allocates a zeroed W×H image.
func NewGray16(w, h int) *Gray16 {
	return &Gray16{W: w, H: h, Pix: make([]uint16, w*h)}
}

// At returns the pixel at (x, y) with no bounds checking beyond the
// slice's own.
func (g *Gray16) At(x, y int) uint16 { return g.Pix[y*g.W+x] }

// Set writes the pixel at (x, y).
func (g *Gray16) Set(x, y int, v uint16) { g.Pix[y*g.W+x] = v }

// Bytes reports the image payload size in bytes (2 per pixel).
func (g *Gray16) Bytes() int { return 2 * len(g.Pix) }

// Clone returns a deep copy.
func (g *Gray16) Clone() *Gray16 {
	c := NewGray16(g.W, g.H)
	copy(c.Pix, g.Pix)
	return c
}

// SubRect copies the rectangle with top-left (x0, y0) and dimensions
// (w, h) into a fresh image. It panics if the rectangle exceeds the
// bounds; callers derive rectangles from validated overlap geometry.
func (g *Gray16) SubRect(x0, y0, w, h int) *Gray16 {
	if x0 < 0 || y0 < 0 || x0+w > g.W || y0+h > g.H || w < 0 || h < 0 {
		panic(fmt.Sprintf("tile: SubRect(%d,%d,%d,%d) outside %dx%d", x0, y0, w, h, g.W, g.H))
	}
	out := NewGray16(w, h)
	for r := 0; r < h; r++ {
		copy(out.Pix[r*w:(r+1)*w], g.Pix[(y0+r)*g.W+x0:(y0+r)*g.W+x0+w])
	}
	return out
}

// ToFloat converts pixel values to float64. dst must have length W*H.
func (g *Gray16) ToFloat(dst []float64) error {
	if len(dst) != len(g.Pix) {
		return fmt.Errorf("tile: destination has %d elements, image has %d", len(dst), len(g.Pix))
	}
	for i, v := range g.Pix {
		dst[i] = float64(v)
	}
	return nil
}

// ToFloatFrame writes the image into the top-left corner of the
// row-major frame dst of width stride ≥ W — the FFT input of a transform
// larger than the tile — and fills the margin with the image's periodic
// continuation: each row runs on linearly from its last pixel to its
// first across the pad columns, and the pad rows run from the last row
// to the first. The FFT treats the frame as one period, so the margin is
// what joins the image's opposite edges; a constant there (zero, worst
// of all) is a band with two hard edges at the same place in every
// padded tile, which correlates with itself at zero displacement and, in
// a phase correlation — all frequencies weigh alike — outweighs the true
// peak of small tiles. The ramp has no edge at all, not even the one an
// unpadded tile's own wrap-around has. len(dst) must be a multiple of
// stride holding at least H rows; a frame of the image's own size is
// ToFloat.
func (g *Gray16) ToFloatFrame(dst []float64, stride int) {
	if len(dst) == len(g.Pix) {
		_ = g.ToFloat(dst) // the lengths match
		return
	}
	for y := 0; y < g.H; y++ {
		row := dst[y*stride : (y+1)*stride]
		for x, v := range g.Pix[y*g.W : (y+1)*g.W] {
			row[x] = float64(v)
		}
		rampFill(row[g.W:], row[g.W-1], row[0])
	}
	// Pad rows, column by column, from the (already padded) last image
	// row back to the first.
	rows, last, first := len(dst)/stride, dst[(g.H-1)*stride:g.H*stride], dst[:stride]
	step := 1 / float64(rows-g.H+1)
	for y := g.H; y < rows; y++ {
		f := float64(y-g.H+1) * step
		for x, row := 0, dst[y*stride:(y+1)*stride]; x < stride; x++ {
			row[x] = last[x] + (first[x]-last[x])*f
		}
	}
}

// rampFill fills pad with the values strictly between from and to on the
// line through them.
func rampFill(pad []float64, from, to float64) {
	step := (to - from) / float64(len(pad)+1)
	for i := range pad {
		pad[i] = from + step*float64(i+1)
	}
}

// Mean returns the average pixel value.
func (g *Gray16) Mean() float64 {
	if len(g.Pix) == 0 {
		return 0
	}
	var s float64
	for _, v := range g.Pix {
		s += float64(v)
	}
	return s / float64(len(g.Pix))
}

// Stats computes, in one pass, the statistics the CCF kernel needs for a
// rectangular region: the sum and the sum of squares.
func (g *Gray16) Stats(x0, y0, w, h int) (sum, sumSq float64) {
	for r := 0; r < h; r++ {
		row := g.Pix[(y0+r)*g.W+x0 : (y0+r)*g.W+x0+w]
		for _, v := range row {
			f := float64(v)
			sum += f
			sumSq += f * f
		}
	}
	return sum, sumSq
}

// NCCRegion computes the normalized cross-correlation factor between the
// w×h region of a at (ax, ay) and the w×h region of b at (bx, by):
//
//	ccf = Σ(a-ā)(b-b̄) / (‖a-ā‖·‖b-b̄‖)
//
// using the single-pass expansion Σab - n·ā·b̄ over raw moments. This is
// the ccf() routine of the paper's Fig 3, fused into one traversal of both
// regions (the original used SSE intrinsics for the same reason).
// Degenerate regions (zero variance) yield -1 so they never win the
// four-way max in PCIAM.
func NCCRegion(a *Gray16, ax, ay int, b *Gray16, bx, by, w, h int) float64 {
	if w <= 0 || h <= 0 {
		return -1
	}
	n := float64(w * h)
	var sa, sb, saa, sbb, sab float64
	for r := 0; r < h; r++ {
		ra := a.Pix[(ay+r)*a.W+ax : (ay+r)*a.W+ax+w]
		rb := b.Pix[(by+r)*b.W+bx : (by+r)*b.W+bx+w]
		for i := 0; i < w; i++ {
			fa := float64(ra[i])
			fb := float64(rb[i])
			sa += fa
			sb += fb
			saa += fa * fa
			sbb += fb * fb
			sab += fa * fb
		}
	}
	num := sab - sa*sb/n
	da := saa - sa*sa/n
	db := sbb - sb*sb/n
	if da <= 0 || db <= 0 {
		return -1
	}
	return num / math.Sqrt(da*db)
}
