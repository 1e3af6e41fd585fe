package pciam

import (
	"fmt"
	"math"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/tile"
)

// This file implements the paper's §VI.A future-work optimizations as
// alternative alignment paths, plus the subpixel refinement MIST later
// added:
//
//   - padded transforms: tiles are zero-padded to the next "fast" length
//     (all prime factors ≤ 7) before the FFT, trading a few percent more
//     elements for much cheaper butterflies — and, as a side effect,
//     removing the circular wrap-around of the correlation;
//   - real-to-complex transforms: the tiles are real, so the forward
//     transform needs only the half spectrum and the inverse correlation
//     surface is real — roughly half the work and memory.
//
// Both paths produce the same displacements as the baseline aligner
// (tested), differing only in cost.

// PaddedAligner computes displacements using zero-padded fast-size
// transforms. Not safe for concurrent use.
type PaddedAligner struct {
	w, h   int // original tile size
	pw, ph int // padded (fast) size
	opts   Options
	fwd    *fft.Plan2D
	inv    *fft.Plan2D
	ar     *arena
	work   []complex128 // aliases ar.work

	fa, fb []complex128
	fill   func(dst []complex128, r int)
}

// NewPaddedAligner builds a padded aligner for w×h tiles.
func NewPaddedAligner(w, h int, opts Options) (*PaddedAligner, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("pciam: invalid tile size %dx%d", w, h)
	}
	opts = opts.withDefaults()
	pw := fft.NextFastLength(w)
	ph := fft.NextFastLength(h)
	pl := opts.Planner
	if pl == nil {
		pl = fft.NewPlanner(fft.Estimate)
	}
	fwd, err := pl.Plan2D(ph, pw, fft.Forward, opts.plan2DOpts())
	if err != nil {
		return nil, err
	}
	inv, err := pl.Plan2D(ph, pw, fft.Inverse, opts.plan2DOpts())
	if err != nil {
		return nil, err
	}
	ar := checkoutArena("padded", w, h, pw*ph, 0)
	al := &PaddedAligner{
		w: w, h: h, pw: pw, ph: ph, opts: opts,
		fwd: fwd, inv: inv, ar: ar, work: ar.work,
	}
	al.fill = func(dst []complex128, r int) {
		o := r * al.pw
		NCCSpectrum(dst, al.fa[o:o+al.pw], al.fb[o:o+al.pw])
	}
	return al, nil
}

// Close returns the aligner's scratch arena to the pool; see
// (*Aligner).Close.
func (al *PaddedAligner) Close() {
	if al.ar == nil {
		return
	}
	releaseArena("padded", al.w, al.h, al.ar)
	al.ar = nil
	al.work = nil
}

// PaddedDims reports the fast transform size in use.
func (al *PaddedAligner) PaddedDims() (w, h int) { return al.pw, al.ph }

// Transform computes the zero-padded forward FFT of a tile.
func (al *PaddedAligner) Transform(t *tile.Gray16) ([]complex128, error) {
	buf, err := al.stageTile(t)
	if err != nil {
		return nil, err
	}
	if err := al.fwd.Execute(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// stageTile zero-pads a tile into a fresh transform buffer without
// executing the FFT.
func (al *PaddedAligner) stageTile(t *tile.Gray16) ([]complex128, error) {
	if t.W != al.w || t.H != al.h {
		return nil, fmt.Errorf("pciam: tile is %dx%d, aligner expects %dx%d", t.W, t.H, al.w, al.h)
	}
	buf := make([]complex128, al.pw*al.ph)
	for y := 0; y < al.h; y++ {
		for x := 0; x < al.w; x++ {
			buf[y*al.pw+x] = complex(float64(t.At(x, y)), 0)
		}
	}
	return buf, nil
}

// TransformPair computes both tiles' padded transforms, batching the two
// row passes into one planner dispatch when the plan's autotuner chose
// batched execution; see (*Aligner).TransformPair.
func (al *PaddedAligner) TransformPair(a, b *tile.Gray16) ([]complex128, []complex128, error) {
	fa, err := al.stageTile(a)
	if err != nil {
		return nil, nil, err
	}
	fb, err := al.stageTile(b)
	if err != nil {
		return nil, nil, err
	}
	if err := al.fwd.ExecuteBatch([][]complex128{fa, fb}); err != nil {
		return nil, nil, err
	}
	return fa, fb, nil
}

// Displace computes the displacement of b relative to a from padded
// transforms. Because the pad region is zero, the correlation no longer
// wraps: the peak coordinate is unambiguous in the padded frame and maps
// to a signed displacement directly, but the CCF pass over candidate
// interpretations is retained for confidence scoring and noise
// robustness.
//
//stitchlint:hotpath
func (al *PaddedAligner) Displace(a, b *tile.Gray16, fa, fb []complex128) (tile.Displacement, error) {
	n := al.pw * al.ph
	if len(fa) != n || len(fb) != n {
		return tile.Displacement{}, fmt.Errorf("pciam: padded transform length %d/%d, want %d", len(fa), len(fb), n)
	}
	al.fa, al.fb = fa, fb
	err := al.inv.ExecuteFill(al.work, al.fill)
	al.fa, al.fb = nil, nil
	if err != nil {
		return tile.Displacement{}, err
	}
	al.ar.peaks, al.ar.cands = topPeaksInto(al.ar.peaks, al.ar.cands, al.work, al.pw, al.ph, al.opts.NPeaks)
	best := tile.Displacement{Corr: math.Inf(-1)}
	for _, p := range al.ar.peaks {
		// Candidates in the PADDED frame: px or px-pw; the overlap test
		// still runs against the original tile dimensions.
		xs, nx := candidateOffsets(p.X, al.pw, al.opts.PositiveOnly)
		ys, ny := candidateOffsets(p.Y, al.ph, al.opts.PositiveOnly)
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				dx, dy := xs[i], ys[j]
				if dx <= -al.w || dx >= al.w || dy <= -al.h || dy >= al.h {
					continue
				}
				c := ccfRegion(a, b, dx, dy, al.opts.MinOverlapPx)
				if c > best.Corr {
					best = tile.Displacement{X: dx, Y: dy, Corr: c}
				}
			}
		}
	}
	if math.IsInf(best.Corr, -1) {
		best = tile.Displacement{Corr: -1}
	}
	return best, nil
}

// DisplaceTiles is the convenience form computing both transforms.
func (al *PaddedAligner) DisplaceTiles(a, b *tile.Gray16) (tile.Displacement, error) {
	fa, fb, err := al.TransformPair(a, b)
	if err != nil {
		return tile.Displacement{}, err
	}
	return al.Displace(a, b, fa, fb)
}

// RealAligner computes displacements through real-to-complex transforms:
// the forward FFT stores only the half spectrum (w/2+1 columns) and the
// inverse correlation comes back as a real surface. Not safe for
// concurrent use.
type RealAligner struct {
	w, h int
	sw   int // spectrum width = w/2+1
	opts Options
	fwd  *fft.RealPlan2D
	ar   *arena
	corr []float64 // real correlation surface (aliases ar.corr)
	pix  []float64 // aliases ar.pix

	fa, fb []complex128
	fill   func(dst []complex128, r int)
}

// NewRealAligner builds a real-transform aligner for w×h tiles.
func NewRealAligner(w, h int, opts Options) (*RealAligner, error) {
	if w < 2 || h <= 0 {
		return nil, fmt.Errorf("pciam: invalid tile size %dx%d", w, h)
	}
	opts = opts.withDefaults()
	pl := opts.Planner
	if pl == nil {
		pl = fft.NewPlanner(fft.Estimate)
	}
	fwd, err := pl.RealPlan2DOpts(h, w, opts.real2DOpts())
	if err != nil {
		return nil, err
	}
	_, sw := fwd.SpectrumDims()
	ar := checkoutArena("real", w, h, 0, w*h)
	al := &RealAligner{
		w: w, h: h, sw: sw, opts: opts, fwd: fwd, ar: ar,
		corr: ar.corr, pix: ar.pix,
	}
	al.fill = func(dst []complex128, r int) {
		o := r * al.sw
		NCCSpectrum(dst, al.fa[o:o+al.sw], al.fb[o:o+al.sw])
	}
	return al, nil
}

// Close returns the aligner's scratch arena to the pool; see
// (*Aligner).Close.
func (al *RealAligner) Close() {
	if al.ar == nil {
		return
	}
	releaseArena("real", al.w, al.h, al.ar)
	al.ar = nil
	al.corr, al.pix = nil, nil
}

// Transform computes the half-spectrum forward transform of a tile —
// (w/2+1)/w of the storage of the complex path.
func (al *RealAligner) Transform(t *tile.Gray16) ([]complex128, error) {
	if t.W != al.w || t.H != al.h {
		return nil, fmt.Errorf("pciam: tile is %dx%d, aligner expects %dx%d", t.W, t.H, al.w, al.h)
	}
	if err := t.ToFloat(al.pix); err != nil {
		return nil, err
	}
	out := make([]complex128, al.h*al.sw)
	if err := al.fwd.Forward(out, al.pix); err != nil {
		return nil, err
	}
	return out, nil
}

// TransformPair computes both tiles' half-spectrum transforms. When the
// plan's autotuner chose batched execution, the two tiles' r2c row
// passes run as one planner dispatch over a shared virtual row space
// (the second tile stages through an extra arena pixel buffer); see
// (*Aligner).TransformPair.
func (al *RealAligner) TransformPair(a, b *tile.Gray16) ([]complex128, []complex128, error) {
	if a.W != al.w || a.H != al.h || b.W != al.w || b.H != al.h {
		return nil, nil, fmt.Errorf("pciam: pair tiles %dx%d/%dx%d, aligner expects %dx%d", a.W, a.H, b.W, b.H, al.w, al.h)
	}
	if al.ar.pix2 == nil {
		al.ar.pix2 = make([]float64, al.w*al.h)
	}
	if err := a.ToFloat(al.pix); err != nil {
		return nil, nil, err
	}
	if err := b.ToFloat(al.ar.pix2); err != nil {
		return nil, nil, err
	}
	fa := make([]complex128, al.h*al.sw)
	fb := make([]complex128, al.h*al.sw)
	if err := al.fwd.ForwardBatch([][]complex128{fa, fb}, [][]float64{al.pix, al.ar.pix2}); err != nil {
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
	n := al.h * al.sw
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
	peaks := al.topPeaks()
	best := tile.Displacement{Corr: math.Inf(-1)}
	for _, p := range peaks {
		d := Resolve(a, b, p.X, p.Y, al.opts)
		if d.Corr > best.Corr {
			best = d
		}
	}
	if math.IsInf(best.Corr, -1) {
		best = tile.Displacement{Corr: -1}
	}
	return best, nil
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

// topPeaksReal is TopPeaks over a real surface.
func topPeaksReal(data []float64, w, h, k int) []Peak {
	if k <= 1 {
		bi, bm := MaxAbsReal(data)
		return []Peak{{X: bi % w, Y: bi / w, Mag: bm}}
	}
	cx := make([]complex128, len(data))
	for i, v := range data {
		cx[i] = complex(v, 0)
	}
	return TopPeaks(cx, w, h, k)
}

// topPeaks is topPeaksReal writing through the aligner's arena so the
// k=1 steady state allocates nothing.
//
//stitchlint:hotpath
func (al *RealAligner) topPeaks() []Peak {
	k := al.opts.NPeaks
	if k <= 1 {
		bi, bm := MaxAbsReal(al.corr)
		al.ar.peaks = append(al.ar.peaks[:0], Peak{X: bi % al.w, Y: bi / al.w, Mag: bm})
		return al.ar.peaks
	}
	if cap(al.ar.cx) < len(al.corr) {
		al.ar.cx = make([]complex128, len(al.corr)) //lint:allow hotpath arena scratch growth, amortized after warm-up
	}
	cx := al.ar.cx[:len(al.corr)]
	for i, v := range al.corr {
		cx[i] = complex(v, 0)
	}
	al.ar.peaks, al.ar.cands = topPeaksInto(al.ar.peaks, al.ar.cands, cx, al.w, al.h, k)
	return al.ar.peaks
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
