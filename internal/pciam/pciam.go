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
// pseudocode cannot represent.
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
	// FFTExec selects the execution shape of the aligner's 2-D plans:
	// the zero value lets the plan-time autotuner measure serial vs
	// split per size and core budget; ExecSerial pins the
	// zero-allocation path; ExecSplit pins the recursive pool-fed
	// split.
	FFTExec fft.ExecStrategy
	// FFTPool is the bounded worker budget the split path draws from;
	// nil means fft.SharedPool(). Pair-level runners Reserve their
	// worker count from the same pool, so transform-level splits only
	// use genuinely idle cores.
	FFTPool *fft.WorkerPool
	// Planner supplies FFT wisdom — strategies and the transform size;
	// nil uses a private estimate-mode planner, which transforms at the
	// tile size.
	Planner *fft.Planner
}

// withDefaults normalizes zero values.
func (o Options) withDefaults() Options {
	if o.NPeaks <= 0 {
		o.NPeaks = 1
	}
	if o.Planner == nil {
		o.Planner = fft.NewPlanner(fft.Estimate)
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

// Aligner computes displacements for tile pairs of one fixed size through
// full complex transforms. The transform size (pw, ph) is the planner's
// choice for the tile size (w, h): the tile size itself, or a larger
// frame this machine transforms faster, into which tiles are padded with
// their own periodic continuation (tile.ToFloatFrame; the paper's §VI.A
// padding optimization). It is NOT safe for
// concurrent use: each worker thread owns one Aligner, the same
// discipline the original applies to FFTW plans.
type Aligner struct {
	w, h   int // tile size
	pw, ph int // transform size
	opts   Options
	fwd    *fft.Plan2D
	inv    *fft.Plan2D
	work   []complex128 // pw×ph NCC spectrum, then correlation surface
	pix    []float64    // pw×ph pixel staging for Transform
	peaks  []Peak
	cands  []peakCand // grows on first NPeaks>1 use

	key    alignerKey // the free list Close returns to
	closed bool

	// fa/fb hold the pending pair's transforms for the fused NCC fill;
	// fill is built once at construction so the per-pair path closes
	// over nothing (zero steady-state allocations).
	fa, fb []complex128
	fill   func(dst []complex128, r int)
}

// NewAligner returns an aligner for w×h tiles transformed at the size
// opts.Planner chooses for them: a pooled one when a Closed aligner with
// the same sizes and options is available, a fresh one otherwise. Close
// it when the worker is done.
func NewAligner(w, h int, opts Options) (*Aligner, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("pciam: invalid tile size %dx%d", w, h)
	}
	opts = opts.withDefaults()
	pw, ph := opts.Planner.TransformSize(w, h, false)
	key := makeAlignerKey(false, w, h, pw, ph, opts)
	if v := checkout(key); v != nil {
		al := v.(*Aligner)
		al.closed = false
		return al, nil
	}
	fwd, err := opts.Planner.Plan2D(ph, pw, fft.Forward, opts.plan2DOpts())
	if err != nil {
		return nil, err
	}
	inv, err := opts.Planner.Plan2D(ph, pw, fft.Inverse, opts.plan2DOpts())
	if err != nil {
		return nil, err
	}
	al := &Aligner{
		w: w, h: h, pw: pw, ph: ph, opts: opts, fwd: fwd, inv: inv, key: key,
		work: make([]complex128, pw*ph), pix: make([]float64, pw*ph), peaks: make([]Peak, 0, 4),
	}
	al.fill = func(dst []complex128, r int) {
		o := r * al.pw
		NCCSpectrum(dst, al.fa[o:o+al.pw], al.fb[o:o+al.pw])
	}
	return al, nil
}

// Close returns the aligner, plans and scratch included, to the pool for
// a later constructor call with the same size and options. The aligner
// must not be used afterwards; a second Close is a no-op.
func (al *Aligner) Close() {
	if al.closed {
		return
	}
	al.closed = true
	alignerPool(al.key).Put(al)
}

// W returns the tile width the aligner was built for.
func (al *Aligner) W() int { return al.w }

// H returns the tile height the aligner was built for.
func (al *Aligner) H() int { return al.h }

// TransformDims reports the transform size in use: the tile size, or the
// larger frame the planner chose.
func (al *Aligner) TransformDims() (w, h int) { return al.pw, al.ph }

// Transform computes the forward 2-D FFT of a tile into a fresh buffer.
// This is the cacheable per-tile work (step 2 of the paper's data-flow
// graph); each tile's transform is reused by up to four pairs.
func (al *Aligner) Transform(t *tile.Gray16) ([]complex128, error) {
	if t.W != al.w || t.H != al.h {
		return nil, fmt.Errorf("pciam: tile is %dx%d, aligner expects %dx%d", t.W, t.H, al.w, al.h)
	}
	t.ToFloatFrame(al.pix, al.pw)
	buf := make([]complex128, al.pw*al.ph)
	for i, v := range al.pix {
		buf[i] = complex(v, 0)
	}
	if err := al.fwd.Execute(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// TransformPair computes the forward transforms of both tiles of a pair.
func (al *Aligner) TransformPair(a, b *tile.Gray16) ([]complex128, []complex128, error) {
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

// Displace computes the displacement of tile b relative to tile a, given
// their cached forward transforms fa and fb. For a west pair, a is the
// west neighbor and b the tile; for a north pair, a is the north neighbor
// and b the tile — so the returned displacement is positive ≈ the tile
// stride along the primary axis. The peak is congruent to the
// displacement modulo the transform size, padded or not; the CCF pass
// over the congruent interpretations is the same either way.
//
//stitchlint:hotpath
func (al *Aligner) Displace(a, b *tile.Gray16, fa, fb []complex128) (tile.Displacement, error) {
	n := al.pw * al.ph
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
	al.peaks, al.cands = topPeaksInto(al.peaks, al.cands, al.work, al.pw, al.ph, al.opts.NPeaks)
	return resolvePeaks(a, b, al.peaks, al.pw, al.ph), nil
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
// aligners' own) so the k=1 steady state allocates nothing. The k>1
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
		cands = make([]peakCand, len(data)) //lint:allow hotpath scratch growth on first NPeaks>1 use, amortized after warm-up
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

// Resolve is ResolveIn for a peak taken on a correlation surface of the
// tiles' own size; the frozen bench/ module's CCF probe is its caller.
// No option changes the resolution.
//
//stitchlint:hotpath
func Resolve(a, b *tile.Gray16, px, py int, _ Options) tile.Displacement {
	return ResolveIn(a, b, px, py, a.W, a.H)
}

// ResolveIn scores the candidate interpretations of a correlation peak
// with cross-correlation factors over the hypothesized overlap regions
// and returns the winner (paper Fig 2 lines 8–12, the CCF1..4 step). The
// peak lies on a pw×ph correlation surface: the transform is periodic in
// (pw, ph), so those are the moduli of the congruent candidates, while
// the overlap test runs against the tiles' own dimensions (a candidate
// that leaves no overlap scores -Inf). It needs no FFT plans, only the
// tile pixels and the peak, which is why the hybrid pipeline can run it
// on dedicated CPU threads (stage 6 of the paper's Fig 8) with just the
// scalar max-reduction result copied back from the GPU.
//
//stitchlint:hotpath
func ResolveIn(a, b *tile.Gray16, px, py, pw, ph int) tile.Displacement {
	xs, nx := candidateOffsets(px, pw)
	ys, ny := candidateOffsets(py, ph)
	best := tile.Displacement{X: px, Y: py, Corr: math.Inf(-1)}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			dx, dy := xs[i], ys[j]
			c := ccfRegion(a, b, dx, dy)
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

// resolvePeaks resolves every candidate peak (never empty: the peak
// search always yields the maximum) and keeps the best-scoring
// displacement.
//
//stitchlint:hotpath
func resolvePeaks(a, b *tile.Gray16, peaks []Peak, pw, ph int) tile.Displacement {
	best := tile.Displacement{Corr: math.Inf(-1)}
	for _, p := range peaks {
		if d := ResolveIn(a, b, p.X, p.Y, pw, ph); d.Corr > best.Corr {
			best = d
		}
	}
	return best
}

// candidateOffsets lists the congruent interpretations of a peak
// coordinate, {p, p-n}, into a fixed-size array (the per-pair hot path
// allocates nothing).
//
//stitchlint:hotpath
func candidateOffsets(p, n int) ([2]int, int) {
	if p == 0 {
		return [2]int{0, 0}, 1
	}
	return [2]int{p, p - n}, 2
}

// ccfRegion evaluates the normalized cross correlation of the overlap
// implied by placing b's origin at signed offset (dx, dy) in a's frame
// (the paper's Fig 3 ccf(), fused via tile.NCCRegion).
//
//stitchlint:hotpath
func ccfRegion(a, b *tile.Gray16, dx, dy int) float64 {
	ax, ay, bx, by, ow, oh, ok := OverlapRegions(a.W, a.H, dx, dy)
	if !ok {
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
