// Package pciam implements the paper's phase correlation image alignment
// method (Kuglin & Hines' phase correlation with Lewis' normalized
// correlation coefficients): the per-pair displacement computation of the
// paper's Figs 1–3.
//
// Steps (per adjacent tile pair i, j):
//
//  1. forward 2-D FFTs of both tiles (usually cached and reused),
//  2. NCC — element-wise normalized conjugate multiplication,
//  3. inverse 2-D FFT of the NCC,
//  4. max-reduction of |NCC⁻¹| to a peak (px, py),
//  5. four-way ambiguity resolution: the transform is periodic, so the
//     peak is congruent to the true displacement modulo (W, H); the four
//     candidate interpretations (px or px−W, py or py−H) are scored with
//     cross-correlation factors (CCF) over the hypothesized overlap
//     regions, and the best wins.
//
// The paper's Fig 2 writes the four candidates as positive-quadrant
// region pairs; this implementation uses the equivalent signed form,
// which additionally resolves negative cross-axis jitter (a west
// neighbor sitting slightly *below* its pair), the case the simplified
// pseudocode cannot represent. Disable with Options.PositiveOnly for a
// strictly paper-faithful kernel.
package pciam

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/tile"
)

// Options tunes the aligner.
type Options struct {
	// NPeaks is how many candidate peaks of |NCC⁻¹| to interpret.
	// 1 matches the paper; larger values (MIST later shipped 2) make
	// sparse-feature pairs more robust at the cost of extra CCFs.
	NPeaks int
	// PositiveOnly restricts ambiguity resolution to the four
	// positive-quadrant hypotheses exactly as written in the paper's
	// Fig 2 pseudocode.
	PositiveOnly bool
	// MinOverlapPx rejects hypotheses whose overlap region is smaller
	// than this in either dimension; tiny slivers correlate spuriously.
	MinOverlapPx int
	// Window applies a 2-D Hann window to tiles before the forward
	// transform. Windowing is the textbook cure for spectral leakage in
	// phase correlation, but for STITCHING the shared content sits at
	// the tile edges that a window suppresses — the ablation shows it
	// trades peak sharpness against overlap signal. Off by default,
	// matching the paper.
	Window bool
	// FFTExec selects the execution shape of the aligner's 2-D plans:
	// the zero value lets the plan-time autotuner measure serial vs
	// split vs batched per size and core budget; ExecSerial pins the
	// zero-allocation path; ExecSplit pins the recursive pool-fed
	// split.
	FFTExec fft.ExecStrategy
	// FFTPool is the bounded worker budget the split path draws from;
	// nil means fft.SharedPool(). Pair-level runners Reserve their
	// worker count from the same pool, so transform-level splits only
	// use genuinely idle cores.
	FFTPool *fft.WorkerPool
	// Planner supplies FFT wisdom; nil uses a private estimate-mode
	// planner.
	Planner *fft.Planner
}

// withDefaults normalizes zero values.
func (o Options) withDefaults() Options {
	if o.NPeaks <= 0 {
		o.NPeaks = 1
	}
	if o.MinOverlapPx <= 0 {
		o.MinOverlapPx = 1
	}
	return o
}

// plan2DOpts translates the aligner options into complex 2-D plan
// options.
func (o Options) plan2DOpts() fft.Plan2DOpts {
	return fft.Plan2DOpts{Exec: o.FFTExec, Pool: o.FFTPool}
}

// real2DOpts is the r2c counterpart of plan2DOpts.
func (o Options) real2DOpts() fft.Real2DOpts {
	return fft.Real2DOpts{Exec: o.FFTExec, Pool: o.FFTPool}
}

// Aligner computes displacements for tile pairs of one fixed size. It is
// NOT safe for concurrent use: each worker thread owns one Aligner, the
// same discipline the original applies to FFTW plans.
type Aligner struct {
	w, h   int
	opts   Options
	fwd    *fft.Plan2D
	inv    *fft.Plan2D
	ar     *arena
	work   []complex128 // aliases ar.work
	window []float64    // nil unless Options.Window

	// fa/fb hold the pending pair's transforms for the fused NCC fill;
	// fill is built once at construction so the per-pair path closes
	// over nothing (zero steady-state allocations).
	fa, fb []complex128
	fill   func(dst []complex128, r int)
}

// NewAligner builds an aligner for w×h tiles.
func NewAligner(w, h int, opts Options) (*Aligner, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("pciam: invalid tile size %dx%d", w, h)
	}
	opts = opts.withDefaults()
	pl := opts.Planner
	if pl == nil {
		pl = fft.NewPlanner(fft.Estimate)
	}
	fwd, err := pl.Plan2D(h, w, fft.Forward, opts.plan2DOpts())
	if err != nil {
		return nil, err
	}
	inv, err := pl.Plan2D(h, w, fft.Inverse, opts.plan2DOpts())
	if err != nil {
		return nil, err
	}
	ar := checkoutArena("complex", w, h, w*h, 0)
	al := &Aligner{w: w, h: h, opts: opts, fwd: fwd, inv: inv, ar: ar, work: ar.work}
	al.fill = func(dst []complex128, r int) {
		o := r * al.w
		NCCSpectrum(dst, al.fa[o:o+al.w], al.fb[o:o+al.w])
	}
	if opts.Window {
		al.window = hannWindow(w, h)
	}
	return al, nil
}

// Close returns the aligner's scratch arena to the pool. Use it for
// aligners that will not be recycled whole through PutAligner; the
// aligner must not be used afterwards.
func (al *Aligner) Close() {
	if al.ar == nil {
		return
	}
	releaseArena("complex", al.w, al.h, al.ar)
	al.ar = nil
	al.work = nil
}

// hannWindow builds the separable 2-D Hann taper.
func hannWindow(w, h int) []float64 {
	wx := make([]float64, w)
	for i := range wx {
		wx[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(w-1)))
	}
	wy := make([]float64, h)
	for i := range wy {
		wy[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(h-1)))
	}
	out := make([]float64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out[y*w+x] = wx[x] * wy[y]
		}
	}
	return out
}

// W returns the tile width the aligner was built for.
func (al *Aligner) W() int { return al.w }

// H returns the tile height the aligner was built for.
func (al *Aligner) H() int { return al.h }

// Transform computes the forward 2-D FFT of a tile into a fresh buffer.
// This is the cacheable per-tile work (step 2 of the paper's data-flow
// graph); each tile's transform is reused by up to four pairs.
func (al *Aligner) Transform(t *tile.Gray16) ([]complex128, error) {
	buf, err := al.stageTile(t)
	if err != nil {
		return nil, err
	}
	if err := al.fwd.Execute(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// TransformPair computes the forward transforms of both tiles of a pair.
// When the plan's autotuner chose batched execution, the two tiles' row
// FFTs run as ONE pass
// over a shared virtual row space — a single planner dispatch amortizing
// twiddles and split bookkeeping — followed by per-tile column passes.
// Results are bit-identical to two Transform calls.
func (al *Aligner) TransformPair(a, b *tile.Gray16) ([]complex128, []complex128, error) {
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

// stageTile loads (and optionally windows) a tile into a fresh transform
// buffer without executing the FFT.
func (al *Aligner) stageTile(t *tile.Gray16) ([]complex128, error) {
	if t.W != al.w || t.H != al.h {
		return nil, fmt.Errorf("pciam: tile is %dx%d, aligner expects %dx%d", t.W, t.H, al.w, al.h)
	}
	buf := make([]complex128, al.w*al.h)
	if err := t.ToComplex(buf); err != nil {
		return nil, err
	}
	if al.window != nil {
		for i := range buf {
			buf[i] *= complex(al.window[i], 0)
		}
	}
	return buf, nil
}

// Displace computes the displacement of tile b relative to tile a, given
// their cached forward transforms fa and fb. For a west pair, a is the
// west neighbor and b the tile; for a north pair, a is the north neighbor
// and b the tile — so the returned displacement is positive ≈ the tile
// stride along the primary axis.
//
//stitchlint:hotpath
func (al *Aligner) Displace(a, b *tile.Gray16, fa, fb []complex128) (tile.Displacement, error) {
	n := al.w * al.h
	if len(fa) != n || len(fb) != n {
		return tile.Displacement{}, fmt.Errorf("pciam: transform length %d/%d, want %d", len(fa), len(fb), n)
	}
	// The NCC row is computed immediately before the inverse's row FFT
	// consumes it, so the spectrum never makes a separate full-size pass
	// through memory.
	al.fa, al.fb = fa, fb
	err := al.inv.ExecuteFill(al.work, al.fill)
	al.fa, al.fb = nil, nil
	if err != nil {
		return tile.Displacement{}, err
	}
	al.ar.peaks, al.ar.cands = topPeaksInto(al.ar.peaks, al.ar.cands, al.work, al.w, al.h, al.opts.NPeaks)
	peaks := al.ar.peaks
	best := tile.Displacement{Corr: math.Inf(-1)}
	for _, p := range peaks {
		d := al.ResolvePeak(a, b, p.X, p.Y)
		if d.Corr > best.Corr {
			best = d
		}
	}
	if math.IsInf(best.Corr, -1) {
		// No usable peak (e.g. identical constant tiles): fall back to
		// zero displacement with no confidence.
		best = tile.Displacement{Corr: -1}
	}
	return best, nil
}

// DisplaceTiles is the convenience form that computes both forward
// transforms itself — the no-reuse path of the Fiji baseline.
func (al *Aligner) DisplaceTiles(a, b *tile.Gray16) (tile.Displacement, error) {
	fa, fb, err := al.TransformPair(a, b)
	if err != nil {
		return tile.Displacement{}, err
	}
	return al.Displace(a, b, fa, fb)
}

// NCCSpectrum computes the normalized correlation coefficients: the
// element-wise normalized conjugate multiplication
//
//	dst[i] = fa[i]·conj(fb[i]) / |fa[i]·conj(fb[i])|
//
// (paper Fig 2 lines 4–5). Zero-magnitude products map to 0 rather than
// NaN. dst may alias fa or fb.
//
//stitchlint:hotpath
func NCCSpectrum(dst, fa, fb []complex128) {
	for i := range dst {
		p := fa[i] * cmplx.Conj(fb[i])
		// Plain sqrt of the squared magnitude instead of cmplx.Abs: Hypot
		// guards against overflow at |re|,|im| near 1e154, far beyond any
		// product of tile spectra (16-bit pixels, tiles ≪ 1e5 on a side),
		// and costs several times a sqrt.
		re, im := real(p), imag(p)
		m := math.Sqrt(re*re + im*im)
		if m == 0 {
			dst[i] = 0
			continue
		}
		// Scale by the reciprocal instead of dividing: the full complex
		// division runtime call costs ~4x a multiply and the divisor is
		// real and positive, so only the magnitude rounding differs (≤1
		// ulp per component).
		s := 1 / m
		dst[i] = complex(re*s, im*s)
	}
}

// Peak is a candidate correlation maximum in image coordinates.
type Peak struct {
	X, Y int
	Mag  float64
}

// MaxAbs reduces data to the index and magnitude of its largest absolute
// value (paper Fig 2 line 7; the GPU version of this is the max-reduction
// kernel).
//
//stitchlint:hotpath
func MaxAbs(data []complex128) (int, float64) {
	bi, bm := 0, -1.0
	for i, v := range data {
		m := math.Abs(real(v)) // |NCC⁻¹| is real up to rounding; using
		// the real part's magnitude matches the reference kernels
		if im := math.Abs(imag(v)); im > m {
			m = im
		}
		if m > bm {
			bm = m
			bi = i
		}
	}
	return bi, bm
}

// TopPeaks returns the k largest local peaks of |data| interpreted as an
// h×w image, suppressing a 5×5 neighborhood around each accepted peak so
// the candidates are distinct displacement hypotheses rather than one
// blurred maximum.
func TopPeaks(data []complex128, w, h, k int) []Peak {
	peaks, _ := topPeaksInto(nil, nil, data, w, h, k)
	return peaks
}

// peakCand is one sortable candidate of the k>1 peak search.
type peakCand struct {
	idx int
	mag float64
}

// topPeaksInto is TopPeaks writing into caller-supplied scratch (the
// aligner arenas) so the k=1 steady state allocates nothing. The k>1
// path still pays sort.Slice's internal allocation; NPeaks=1 is the
// paper's configuration and the one the zero-allocation guarantee
// covers.
//
//stitchlint:hotpath
func topPeaksInto(peaks []Peak, cands []peakCand, data []complex128, w, h, k int) ([]Peak, []peakCand) {
	peaks = peaks[:0]
	if k <= 1 {
		i, m := MaxAbs(data)
		return append(peaks, Peak{X: i % w, Y: i / w, Mag: m}), cands
	}
	if cap(cands) < len(data) {
		cands = make([]peakCand, len(data)) //lint:allow hotpath arena scratch growth, amortized after warm-up
	}
	cands = cands[:len(data)]
	for i, v := range data {
		cands[i] = peakCand{idx: i, mag: cmplx.Abs(v)}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mag > cands[j].mag })
	const sep = 2
	for _, c := range cands {
		if len(peaks) == k {
			break
		}
		x, y := c.idx%w, c.idx/w
		ok := true
		for _, p := range peaks {
			dx := wrapDist(x, p.X, w)
			dy := wrapDist(y, p.Y, h)
			if dx <= sep && dy <= sep {
				ok = false
				break
			}
		}
		if ok {
			peaks = append(peaks, Peak{X: x, Y: y, Mag: c.mag})
		}
	}
	return peaks, cands
}

// wrapDist is the circular distance between coordinates on a ring of
// size n.
func wrapDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// ResolvePeak scores the candidate interpretations of a correlation peak
// with cross-correlation factors over the hypothesized overlap regions
// and returns the winner (paper Fig 2 lines 8–12, the CCF1..4 step).
//
//stitchlint:hotpath
func (al *Aligner) ResolvePeak(a, b *tile.Gray16, px, py int) tile.Displacement {
	return Resolve(a, b, px, py, al.opts)
}

// Resolve is the standalone form of ResolvePeak: it needs no FFT plans,
// only the tile pixels and the peak, which is why the hybrid pipeline can
// run it on dedicated CPU threads (stage 6 of the paper's Fig 8) with
// just the scalar max-reduction result copied back from the GPU.
//
//stitchlint:hotpath
func Resolve(a, b *tile.Gray16, px, py int, opts Options) tile.Displacement {
	opts = opts.withDefaults()
	w, h := a.W, a.H
	xs, nx := candidateOffsets(px, w, opts.PositiveOnly)
	ys, ny := candidateOffsets(py, h, opts.PositiveOnly)
	best := tile.Displacement{X: px, Y: py, Corr: math.Inf(-1)}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			dx, dy := xs[i], ys[j]
			c := ccfRegion(a, b, dx, dy, opts.MinOverlapPx)
			if c > best.Corr {
				best = tile.Displacement{X: dx, Y: dy, Corr: c}
			}
		}
	}
	if math.IsInf(best.Corr, -1) {
		best.Corr = -1
	}
	return best
}

// candidateOffsets lists the congruent interpretations of a peak
// coordinate into a fixed-size array (the per-pair hot path allocates
// nothing). Signed mode: {p, p-n}. Positive-only (paper pseudocode):
// {p, n-p}, both treated as rightward/downward shifts.
//
//stitchlint:hotpath
func candidateOffsets(p, n int, positiveOnly bool) ([2]int, int) {
	if p == 0 {
		return [2]int{0, 0}, 1
	}
	if positiveOnly {
		return [2]int{p, n - p}, 2
	}
	return [2]int{p, p - n}, 2
}

// ccf evaluates the normalized cross correlation of the overlap implied
// by placing b's origin at signed offset (dx, dy) in a's frame (the
// paper's Fig 3 ccf(), fused via tile.NCCRegion).
//
//stitchlint:hotpath
func (al *Aligner) ccf(a, b *tile.Gray16, dx, dy int) float64 {
	return ccfRegion(a, b, dx, dy, al.opts.MinOverlapPx)
}

//stitchlint:hotpath
func ccfRegion(a, b *tile.Gray16, dx, dy, minOverlap int) float64 {
	ax, ay, bx, by, ow, oh, ok := OverlapRegions(a.W, a.H, dx, dy)
	if !ok || ow < minOverlap || oh < minOverlap {
		return math.Inf(-1)
	}
	return tile.NCCRegion(a, ax, ay, b, bx, by, ow, oh)
}

// OverlapRegions intersects two w×h images with b's origin at signed
// (dx, dy) in a's frame, returning the per-image top-left corners and the
// intersection size. ok is false for an empty intersection.
func OverlapRegions(w, h, dx, dy int) (ax, ay, bx, by, ow, oh int, ok bool) {
	if dx >= 0 {
		ax, bx, ow = dx, 0, w-dx
	} else {
		ax, bx, ow = 0, -dx, w+dx
	}
	if dy >= 0 {
		ay, by, oh = dy, 0, h-dy
	} else {
		ay, by, oh = 0, -dy, h+dy
	}
	if ow <= 0 || oh <= 0 {
		return 0, 0, 0, 0, 0, 0, false
	}
	return ax, ay, bx, by, ow, oh, true
}
