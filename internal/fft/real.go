package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// This file implements real-input transforms — the paper's §VI.A
// future-work optimization ("using real to complex transforms will further
// improve performance by doing less work; it will also reduce the
// computation's memory footprint").
//
// A real length-n sequence has a conjugate-symmetric spectrum, so only the
// first n/2+1 bins are stored. For even n the forward transform packs the
// input into an n/2-point complex FFT and untangles the halves; odd n
// falls back to a full complex transform.

// RealPlan computes forward real-to-complex and inverse complex-to-real
// 1-D transforms of length n. Not safe for concurrent use.
type RealPlan struct {
	n       int
	half    *Plan        // n/2-point complex plan (even n fast path)
	full    *Plan        // full-size fallback (odd n)
	fullInv *Plan        // full-size inverse for odd-n c2r
	wr      []complex128 // untangling twiddles exp(-2πi k/n)
	wrf     []complex128 // forward untangle: wr[k]·(-i/2), folding the O[k] scale
	wri     []complex128 // inverse re-tangle: conj(wr[k])/2, folding the O'[k] scale
	buf     []complex128
}

// planFactory builds the inner complex plans of a real plan. The default
// factory is NewPlan with default options; the Planner substitutes a
// wisdom-consulting one.
type planFactory func(n int, dir Direction) (*Plan, error)

func defaultPlanFactory(n int, dir Direction) (*Plan, error) {
	return NewPlan(n, dir, PlanOpts{})
}

// NewRealPlan builds a real-transform plan for length n ≥ 2.
func NewRealPlan(n int) (*RealPlan, error) {
	return newRealPlan(n, defaultPlanFactory)
}

func newRealPlan(n int, mk planFactory) (*RealPlan, error) {
	if n < 2 {
		return nil, fmt.Errorf("fft: real plan requires n ≥ 2, got %d", n)
	}
	rp := &RealPlan{n: n}
	if n%2 == 0 {
		p, err := mk(n/2, Forward)
		if err != nil {
			return nil, err
		}
		rp.half = p
		rp.wr = make([]complex128, n/2+1)
		rp.wrf = make([]complex128, n/2+1)
		rp.wri = make([]complex128, n/2)
		for k := range rp.wr {
			rp.wr[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
			rp.wrf[k] = rp.wr[k] * complex(0, -0.5)
			if k < n/2 {
				rp.wri[k] = cmplx.Conj(rp.wr[k]) * 0.5
			}
		}
		rp.buf = make([]complex128, n/2)
	} else {
		p, err := mk(n, Forward)
		if err != nil {
			return nil, err
		}
		pi, err := mk(n, Inverse)
		if err != nil {
			return nil, err
		}
		rp.full = p
		rp.fullInv = pi
		rp.buf = make([]complex128, n)
	}
	return rp, nil
}

// Len reports the real input length.
func (rp *RealPlan) Len() int { return rp.n }

// SpectrumLen reports the half-spectrum length n/2+1.
func (rp *RealPlan) SpectrumLen() int { return rp.n/2 + 1 }

// Forward computes the half spectrum X[0..n/2] of the real input x into
// dst, which must have length SpectrumLen.
//
//stitchlint:hotpath
func (rp *RealPlan) Forward(dst []complex128, x []float64) error {
	if len(x) != rp.n {
		return fmt.Errorf("fft: real plan length %d, input length %d", rp.n, len(x))
	}
	if len(dst) != rp.SpectrumLen() {
		return fmt.Errorf("fft: spectrum buffer length %d, want %d", len(dst), rp.SpectrumLen())
	}
	if rp.full != nil { // odd-n fallback
		for i, v := range x {
			rp.buf[i] = complex(v, 0)
		}
		if err := rp.full.Execute(rp.buf); err != nil {
			return err
		}
		copy(dst, rp.buf[:rp.n/2+1])
		return nil
	}
	h := rp.n / 2
	// Pack pairs into a length-h complex signal z[j] = x[2j] + i·x[2j+1].
	for j := 0; j < h; j++ {
		rp.buf[j] = complex(x[2*j], x[2*j+1])
	}
	if err := rp.half.Execute(rp.buf); err != nil {
		return err
	}
	// Untangle: with Z the FFT of z,
	//   E[k] = (Z[k] + conj(Z[h-k]))/2          (FFT of even samples)
	//   O[k] = (Z[k] - conj(Z[h-k]))/(2i)       (FFT of odd samples)
	//   X[k] = E[k] + exp(-2πik/n)·O[k]
	// k=0 and k=h both wrap to Z[0]; peeling them keeps the loop free of
	// the index modulo. wrf carries the -i/2 scale of O[k], so the loop
	// body is one conjugate-symmetric sum and one complex multiply.
	z0 := rp.buf[0]
	zc0 := cmplx.Conj(z0)
	e0 := (z0 + zc0) * 0.5
	d0 := z0 - zc0
	dst[0] = e0 + rp.wrf[0]*d0
	dst[h] = e0 + rp.wrf[h]*d0
	for k := 1; k < h; k++ {
		zk := rp.buf[k]
		zc := cmplx.Conj(rp.buf[h-k])
		dst[k] = (zk+zc)*0.5 + rp.wrf[k]*(zk-zc)
	}
	return nil
}

// Inverse reconstructs the real signal x (length n) from the half
// spectrum spec (length SpectrumLen). The result is unnormalized: like the
// complex plans, it carries a factor of n relative to the original input.
//
//stitchlint:hotpath
func (rp *RealPlan) Inverse(x []float64, spec []complex128) error {
	if len(x) != rp.n {
		return fmt.Errorf("fft: real plan length %d, output length %d", rp.n, len(x))
	}
	if len(spec) != rp.SpectrumLen() {
		return fmt.Errorf("fft: spectrum buffer length %d, want %d", len(spec), rp.SpectrumLen())
	}
	if rp.full != nil { // odd-n fallback: rebuild full spectrum, inverse FFT
		h := rp.n / 2
		rp.buf[0] = spec[0]
		for k := 1; k <= h; k++ {
			rp.buf[k] = spec[k]
			rp.buf[rp.n-k] = cmplx.Conj(spec[k])
		}
		if err := rp.fullInv.Execute(rp.buf); err != nil {
			return err
		}
		for i := range x {
			x[i] = real(rp.buf[i])
		}
		return nil
	}
	h := rp.n / 2
	// Re-tangle: Z[k] = E[k] + i·exp(+2πik/n)·O'[k] where
	//   E[k]  = (X[k] + conj(X[h-k]))/2
	//   O'[k] = (X[k] - conj(X[h-k]))/2 · conj(w[k])·... — derived by
	// inverting the untangle step. The inverse h-point FFT reuses the
	// forward plan via the conjugation trick IFFT(z) = conj(FFT(conj(z)));
	// the entry conjugation is folded into this staging write instead of
	// making a second pass over buf.
	for k := 0; k < h; k++ {
		xk := spec[k]
		xc := cmplx.Conj(spec[h-k])
		e := (xk + xc) * 0.5
		o := (xk - xc) * rp.wri[k] // wri folds the 1/2 scale
		v := e + complex(-imag(o), real(o))
		rp.buf[k] = complex(real(v), -imag(v))
	}
	if err := rp.half.Execute(rp.buf); err != nil {
		return err
	}
	// Unpack: z[j] carries x[2j] (real) and x[2j+1] (imag), each ×h; the
	// overall unnormalized convention wants ×n = ×2h, so scale by 2 (with
	// the exit conjugation of the IFFT trick applied inline).
	for j := 0; j < h; j++ {
		z := rp.buf[j]
		x[2*j] = real(z) * 2
		x[2*j+1] = -imag(z) * 2
	}
	return nil
}

// RealPlan2D computes forward real-to-complex 2-D transforms of h×w
// row-major real images, producing the half spectrum with rows of length
// w/2+1 (h rows). Inverse reconstructs the real image. Like Plan2D, the
// spectrum column passes run through a blocked transpose into plan-held
// scratch. Not safe for concurrent use.
type RealPlan2D struct {
	w, h int
	sw   int // spectrum row width = w/2+1

	exec   ExecStrategy // resolved: ExecSerial or ExecSplit
	pool   *WorkerPool
	nslots int // len(rowF); split legs use disjoint slot ranges

	rowF  []*RealPlan // one per slot
	colF  []*Plan
	colI  []*Plan
	specF []complex128 // scratch spectrum for inverse
	tbuf  []complex128 // sw×h transpose scratch for the column passes

	// Split-pass spans (minimum indices per leg), precomputed per pass
	// shape so the hot path does no division.
	rowSpan, colSpan, specRowSpan int

	// Pending-pass operands. The shard/slab bodies below are bound once
	// at construction and read their per-call operands from these fields;
	// building them as literals inside Forward/Inverse would heap-allocate
	// a closure per pass (the split branch makes them escape), which the
	// zero-allocation steady state cannot afford.
	opImg   []float64
	opSpec  []complex128
	opPlans []*Plan
	opFill  func(dst []complex128, r int)

	fnRowFwd  func(wk, r int) error
	fnRowInv  func(wk, r int) error
	fnFill    func(wk, r int) error
	fnColSlab func(wk, lo, hi int) error
	fnColBack func(wk, lo, hi int) error
}

// Real2DOpts adjusts real 2-D plan construction — the r2c counterpart of
// Plan2DOpts.
type Real2DOpts struct {
	// Exec selects the single-call execution shape: ExecAuto (zero
	// value) measures serial vs split at plan time, ExecSerial pins the
	// zero-allocation path, ExecSplit pins the recursive pool-fed split.
	Exec ExecStrategy
	// Pool supplies the helper budget for the split path; nil means
	// SharedPool().
	Pool *WorkerPool
}

// NewRealPlan2D builds a serial 2-D real-transform plan.
func NewRealPlan2D(h, w int) (*RealPlan2D, error) {
	return NewRealPlan2DOpts(h, w, Real2DOpts{Exec: ExecSerial})
}

// NewRealPlan2DOpts builds a plan with full control over the execution
// shape.
func NewRealPlan2DOpts(h, w int, opts Real2DOpts) (*RealPlan2D, error) {
	return newRealPlan2D(h, w, opts, defaultPlanFactory)
}

func newRealPlan2D(h, w int, opts Real2DOpts, mk planFactory) (*RealPlan2D, error) {
	if h <= 0 || w < 2 {
		return nil, fmt.Errorf("fft: invalid real 2-D size %dx%d", h, w)
	}
	pool := opts.Pool
	if pool == nil {
		pool = SharedPool()
	}
	p := &RealPlan2D{w: w, h: h, sw: w/2 + 1, exec: opts.Exec, pool: pool,
		specF: make([]complex128, h*(w/2+1)),
		tbuf:  make([]complex128, h*(w/2+1))}
	p.rowSpan = spanAtLeast1(splitMinWork / w)
	p.colSpan = spanAtLeast1(splitMinWork / h)
	p.specRowSpan = spanAtLeast1(splitMinWork / p.sw)

	autoTrivial := p.exec == ExecAuto && (pool.Free() == 0 || w*h < autotuneFloor)
	if autoTrivial {
		p.exec = ExecSerial
	}
	p.nslots = splitSlots(p.exec, pool)
	for i := 0; i < p.nslots; i++ {
		rowF, err := newRealPlan(w, mk)
		if err != nil {
			return nil, err
		}
		colF, err := mk(h, Forward)
		if err != nil {
			return nil, err
		}
		colI, err := mk(h, Inverse)
		if err != nil {
			return nil, err
		}
		p.rowF = append(p.rowF, rowF)
		p.colF = append(p.colF, colF)
		p.colI = append(p.colI, colI)
	}
	p.fnRowFwd = func(wk, r int) error {
		return p.rowF[wk].Forward(p.opSpec[r*p.sw:(r+1)*p.sw], p.opImg[r*p.w:(r+1)*p.w])
	}
	p.fnRowInv = func(wk, r int) error {
		return p.rowF[wk].Inverse(p.opImg[r*p.w:(r+1)*p.w], p.specF[r*p.sw:(r+1)*p.sw])
	}
	p.fnFill = func(wk, r int) error {
		p.opFill(p.specF[r*p.sw:(r+1)*p.sw], r)
		return nil
	}
	p.fnColSlab = func(wk, lo, hi int) error {
		transposeRange(p.tbuf, p.opSpec, p.h, p.sw, lo, hi)
		for c := lo; c < hi; c++ {
			if err := p.opPlans[wk].Execute(p.tbuf[c*p.h : (c+1)*p.h]); err != nil {
				return err
			}
		}
		return nil
	}
	p.fnColBack = func(wk, lo, hi int) error {
		transposeRange(p.opSpec, p.tbuf, p.sw, p.h, lo, hi)
		return nil
	}
	switch {
	case autoTrivial:
		countChoice(ExecSerial)
	case p.exec == ExecAuto:
		p.resolveAuto()
	}
	return p, nil
}

// resolveAuto times the forward transform under the serial and split
// shapes on scratch data and commits the plan to the faster (cached per
// size/budget; one decision covers forward and inverse, whose pass
// structures match).
func (p *RealPlan2D) resolveAuto() {
	key := autoKey{kind: "r2c", h: p.h, w: p.w, budget: p.pool.Cap()}

	var img []float64
	var spec []complex128
	run := func(exec ExecStrategy) error {
		if img == nil {
			img, spec = make([]float64, p.h*p.w), make([]complex128, p.h*p.sw)
			for i := range img {
				img[i] = float64(i%97) - 48
			}
		}
		p.exec = exec
		return p.Forward(spec, img)
	}
	p.exec = autotune(key,
		func() error { return run(ExecSerial) },
		func() error { return run(ExecSplit) })
}

// shard runs fn(slot, index) for every index in [0, n): by recursive
// range splitting over the pool when the plan resolved to ExecSplit
// (minSpan is the smallest index range a split leg may keep), and as a
// plain loop otherwise. The serial branch creates no closures and
// performs no allocation — the zero-alloc steady state runs there.
func (p *RealPlan2D) shard(n, minSpan int, fn func(slot, index int) error) error {
	if p.exec == ExecSplit {
		return splitRange(p.pool, 0, p.nslots, 0, n, minSpan, func(slot, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if err := fn(slot, i); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for i := 0; i < n; i++ {
		if err := fn(0, i); err != nil {
			return err
		}
	}
	return nil
}

// slab runs fn(slot, lo, hi) over contiguous shares of [0, n) — the
// slab counterpart of shard, used by the blocked-transpose column passes
// so each leg transposes and transforms a disjoint column range.
func (p *RealPlan2D) slab(n, minSpan int, fn func(slot, lo, hi int) error) error {
	if p.exec == ExecSplit {
		return splitRange(p.pool, 0, p.nslots, 0, n, minSpan, fn)
	}
	return fn(0, 0, n)
}

// columnPass runs length-h FFTs over every spectrum column of the h×sw
// matrix spec in place, using plans to select the per-slot forward or
// inverse plans.
//
//stitchlint:hotpath
func (p *RealPlan2D) columnPass(spec []complex128, plans []*Plan) error {
	p.opSpec, p.opPlans = spec, plans
	err := p.slab(p.sw, p.colSpan, p.fnColSlab)
	if err == nil {
		err = p.slab(p.h, p.specRowSpan, p.fnColBack)
	}
	p.opSpec, p.opPlans = nil, nil
	return err
}

// SpectrumDims returns the half-spectrum dimensions (rows, cols).
func (p *RealPlan2D) SpectrumDims() (int, int) { return p.h, p.sw }

// W returns the real image width.
func (p *RealPlan2D) W() int { return p.w }

// H returns the real image height.
func (p *RealPlan2D) H() int { return p.h }

// Exec reports the resolved execution strategy (never ExecAuto).
func (p *RealPlan2D) Exec() ExecStrategy { return p.exec }

// Forward computes the half spectrum of the real image img (h*w,
// row-major) into dst (h*(w/2+1), row-major).
//
//stitchlint:hotpath
func (p *RealPlan2D) Forward(dst []complex128, img []float64) error {
	if len(img) != p.h*p.w {
		return fmt.Errorf("fft: image is %d elements, want %d", len(img), p.h*p.w)
	}
	if len(dst) != p.h*p.sw {
		return fmt.Errorf("fft: spectrum is %d elements, want %d", len(dst), p.h*p.sw)
	}
	p.opImg, p.opSpec = img, dst
	err := p.shard(p.h, p.rowSpan, p.fnRowFwd)
	p.opImg, p.opSpec = nil, nil
	if err != nil {
		return err
	}
	return p.columnPass(dst, p.colF)
}

// Inverse reconstructs the real image from the half spectrum. The result
// carries the unnormalized factor w·h, matching the complex 2-D plans.
//
//stitchlint:hotpath
func (p *RealPlan2D) Inverse(img []float64, spec []complex128) error {
	if len(img) != p.h*p.w {
		return fmt.Errorf("fft: image is %d elements, want %d", len(img), p.h*p.w)
	}
	if len(spec) != p.h*p.sw {
		return fmt.Errorf("fft: spectrum is %d elements, want %d", len(spec), p.h*p.sw)
	}
	copy(p.specF, spec)
	return p.inverseStaged(img)
}

// InverseFill reconstructs the real image like Inverse, but produces the
// spectrum on the fly: fill(dst, r) writes spectrum row r (length
// SpectrumDims cols) into dst. The fill IS the inverse's staging write —
// it replaces the spectrum copy Inverse performs — so a caller fusing an
// element-wise operation (pciam's normalized conjugate multiply) into
// fill never materializes its result as a separate full-size pass. fill
// may be called concurrently from different workers for distinct rows.
//
//stitchlint:hotpath
func (p *RealPlan2D) InverseFill(img []float64, fill func(dst []complex128, r int)) error {
	if len(img) != p.h*p.w {
		return fmt.Errorf("fft: image is %d elements, want %d", len(img), p.h*p.w)
	}
	if fill == nil {
		return fmt.Errorf("fft: InverseFill requires a fill function")
	}
	p.opFill = fill
	err := p.shard(p.h, p.specRowSpan, p.fnFill)
	p.opFill = nil
	if err != nil {
		return err
	}
	return p.inverseStaged(img)
}

// inverseStaged finishes the inverse from the staged spectrum in specF:
// the column pass with unnormalized inverse FFTs, then each row through
// the 1-D c2r inverse. Unnormalized convention: colI gives ×h,
// rowF.Inverse gives ×w — the product is the advertised w·h factor, so
// no scaling here.
//
//stitchlint:hotpath
func (p *RealPlan2D) inverseStaged(img []float64) error {
	if err := p.columnPass(p.specF, p.colI); err != nil {
		return err
	}
	p.opImg = img
	err := p.shard(p.h, p.rowSpan, p.fnRowInv)
	p.opImg = nil
	return err
}
