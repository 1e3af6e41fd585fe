package pciam

import (
	"fmt"
	"math"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/tile"
)

// This file implements the paper's §VI.A real-to-complex optimization as
// its own aligner type, plus the subpixel refinement MIST later added.
// The tiles are real, so the forward transform needs only the half
// spectrum and the inverse correlation surface is real — roughly half the
// work and memory. (§VI.A's other optimization, padding to fast sizes, is
// not a path but a transform size, fft.TransformSize's for either
// layout.) All paths produce the same displacements as the baseline
// aligner (tested), differing only in cost.

// RealAligner computes displacements through real-to-complex transforms
// at fft.TransformSize's frame (pw, ph), like Aligner: the forward
// FFT stores only the half spectrum (pw/2+1 columns) and the inverse
// correlation comes back as a real surface. Not safe for concurrent use.
type RealAligner struct {
	w, h   int // tile size
	pw, ph int // transform size
	sw     int // spectrum width = pw/2+1
	opts   Options
	fwd    *fft.RealPlan2D
	corr   []float64 // pw×ph real correlation surface
	pix    []float64 // pw×ph pixel staging for Transform
	peaks  []Peak
	cands  []peakCand   // cands and cx grow on first NPeaks>1 use
	cx     []complex128 // corr widened for the shared peak search

	key    alignerKey // the free list Close returns to
	closed bool

	fa, fb []complex128
	fill   func(dst []complex128, r int)
}

// NewRealAligner returns a real-transform aligner for w×h tiles, pooled
// or fresh like NewAligner. Close it when the worker is done.
func NewRealAligner(w, h int, opts Options) (*RealAligner, error) {
	if w < 2 || h <= 0 {
		return nil, fmt.Errorf("pciam: invalid tile size %dx%d", w, h)
	}
	opts = opts.withDefaults()
	key := makeAlignerKey(true, w, h, opts)
	if v := checkout(key); v != nil {
		al := v.(*RealAligner)
		al.closed = false
		return al, nil
	}
	pw, ph := fft.TransformSize(w, h, true)
	fwd, err := fft.NewRealPlan2DOpts(ph, pw, opts.real2DOpts())
	if err != nil {
		return nil, err
	}
	_, sw := fwd.SpectrumDims()
	al := &RealAligner{
		w: w, h: h, pw: pw, ph: ph, sw: sw, opts: opts, fwd: fwd, key: key,
		corr: make([]float64, pw*ph), pix: make([]float64, pw*ph), peaks: make([]Peak, 0, 4),
	}
	al.fill = func(dst []complex128, r int) {
		o := r * al.sw
		NCCSpectrum(dst, al.fa[o:o+al.sw], al.fb[o:o+al.sw])
	}
	return al, nil
}

// Close returns the aligner to the pool; see (*Aligner).Close.
func (al *RealAligner) Close() {
	if al.closed {
		return
	}
	al.closed = true
	alignerPool(al.key).Put(al)
}

// TransformDims reports the transform size in use, as on Aligner.
func (al *RealAligner) TransformDims() (w, h int) { return al.pw, al.ph }

// Transform computes the half-spectrum forward transform of a tile —
// (pw/2+1)/pw of the storage of the complex path.
func (al *RealAligner) Transform(t *tile.Gray16) ([]complex128, error) {
	if t.W != al.w || t.H != al.h {
		return nil, fmt.Errorf("pciam: tile is %dx%d, aligner expects %dx%d", t.W, t.H, al.w, al.h)
	}
	t.ToFloatFrame(al.pix, al.pw)
	out := make([]complex128, al.ph*al.sw)
	if err := al.fwd.Forward(out, al.pix); err != nil {
		return nil, err
	}
	return out, nil
}

// TransformPair computes both tiles' half-spectrum transforms.
func (al *RealAligner) TransformPair(a, b *tile.Gray16) ([]complex128, []complex128, error) {
	fa, err := al.Transform(a)
	if err != nil {
		return nil, nil, err
	}
	fb, err := al.Transform(b)
	if err != nil {
		return nil, nil, err
	}
	return fa, fb, nil
}

// Displace computes the displacement of b relative to a from half
// spectra. The NCC runs over the half spectrum only; by conjugate
// symmetry the missing bins contribute the mirrored phases, so the
// inverse c2r transform reconstructs the full real correlation surface.
//
//stitchlint:hotpath
func (al *RealAligner) Displace(a, b *tile.Gray16, fa, fb []complex128) (tile.Displacement, error) {
	n := al.ph * al.sw
	if len(fa) != n || len(fb) != n {
		return tile.Displacement{}, fmt.Errorf("pciam: half-spectrum length %d/%d, want %d", len(fa), len(fb), n)
	}
	// The NCC row is the inverse's own staging write, so the
	// half-spectrum product never makes a separate pass.
	al.fa, al.fb = fa, fb
	err := al.fwd.InverseFill(al.corr, al.fill)
	al.fa, al.fb = nil, nil
	if err != nil {
		return tile.Displacement{}, err
	}
	return resolvePeaks(a, b, al.topPeaks(), al.pw, al.ph), nil
}

// DisplaceTiles is the convenience form computing both transforms.
func (al *RealAligner) DisplaceTiles(a, b *tile.Gray16) (tile.Displacement, error) {
	fa, fb, err := al.TransformPair(a, b)
	if err != nil {
		return tile.Displacement{}, err
	}
	return al.Displace(a, b, fa, fb)
}

// MaxAbsReal is MaxAbs over a real correlation surface — the reduction
// the r2c GPU kernel runs on the c2r inverse output. First-seen index
// wins ties, matching the complex kernel.
//
//stitchlint:hotpath
func MaxAbsReal(data []float64) (int, float64) {
	bi, bm := 0, -1.0
	for i, v := range data {
		if m := math.Abs(v); m > bm {
			bm = m
			bi = i
		}
	}
	return bi, bm
}

// topPeaks is the peak search over the real surface, writing through the
// aligner's scratch so the k=1 steady state allocates nothing.
//
//stitchlint:hotpath
func (al *RealAligner) topPeaks() []Peak {
	k := al.opts.NPeaks
	if k <= 1 {
		bi, bm := MaxAbsReal(al.corr)
		al.peaks = append(al.peaks[:0], Peak{X: bi % al.pw, Y: bi / al.pw, Mag: bm})
		return al.peaks
	}
	if al.cx == nil {
		al.cx = make([]complex128, len(al.corr)) //lint:allow hotpath scratch growth on first NPeaks>1 use, amortized after warm-up
	}
	for i, v := range al.corr {
		al.cx[i] = complex(v, 0)
	}
	al.peaks, al.cands = topPeaksInto(al.peaks, al.cands, al.cx, al.pw, al.ph, k)
	return al.peaks
}

// SubpixelPeak refines an integer correlation peak to subpixel precision
// by fitting a 1-D parabola through the peak and its neighbors along
// each axis (the standard refinement MIST applies after phase
// correlation). data is the h×w correlation surface; returns the refined
// (x, y) with each offset clamped to (-0.5, 0.5).
func SubpixelPeak(data []complex128, w, h, px, py int) (float64, float64) {
	at := func(x, y int) float64 {
		x = ((x % w) + w) % w
		y = ((y % h) + h) % h
		v := data[y*w+x]
		return math.Hypot(real(v), imag(v))
	}
	refine := func(m1, c, p1 float64) float64 {
		den := m1 - 2*c + p1
		if den == 0 {
			return 0
		}
		d := 0.5 * (m1 - p1) / den
		if d > 0.5 {
			d = 0.5
		}
		if d < -0.5 {
			d = -0.5
		}
		return d
	}
	dx := refine(at(px-1, py), at(px, py), at(px+1, py))
	dy := refine(at(px, py-1), at(px, py), at(px, py+1))
	return float64(px) + dx, float64(py) + dy
}
