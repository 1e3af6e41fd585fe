// Package fft implements one- and two-dimensional discrete Fourier
// transforms over complex128 and float64 data.
//
// The package is a from-scratch stand-in for FFTW (CPU side) and cuFFT
// (GPU side) in the stitching pipeline. It supports arbitrary transform
// lengths: composite lengths are handled by a recursive mixed-radix
// Cooley-Tukey decomposition with specialized radix-2/3/4/5 butterflies and
// a generic small-prime butterfly; lengths containing large prime factors
// fall back to Bluestein's chirp-z algorithm. Planning is by rule, not by
// timing: a length's algorithm (chooseStrategy) and a tile's transform
// frame (TransformSize) are pure functions of the sizes, so a transform's
// bits never depend on the host or its load.
//
// Conventions: the forward transform computes
//
//	X[k] = sum_{n} x[n] * exp(-2πi kn/N)
//
// and the inverse transform omits the 1/N factor unless a plan is created
// with normalization enabled (see PlanOpts.NormalizeInverse). This matches
// FFTW/cuFFT, which the original system used: the stitching code folds the
// scale factor into the NCC normalization and never divides by N.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Direction selects a forward or inverse transform.
type Direction int

const (
	// Forward computes the DFT with the exp(-2πi kn/N) kernel.
	Forward Direction = iota
	// Inverse computes the DFT with the exp(+2πi kn/N) kernel,
	// unnormalized unless the plan requests normalization.
	Inverse
)

func (d Direction) String() string {
	switch d {
	case Forward:
		return "forward"
	case Inverse:
		return "inverse"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// strategy identifies the concrete algorithm a plan executes.
type strategy int

const (
	stratDFT       strategy = iota // direct O(N²) — tiny sizes only
	stratRadix2                    // iterative power-of-two (bit reversal)
	stratMixed                     // recursive mixed radix
	stratBluestein                 // chirp-z via power-of-two convolution
)

func (s strategy) String() string {
	switch s {
	case stratDFT:
		return "dft"
	case stratRadix2:
		return "radix2"
	case stratMixed:
		return "mixed"
	case stratBluestein:
		return "bluestein"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// maxDirectPrime is the largest prime factor executed with the generic
// O(p²) butterfly inside the mixed-radix recursion. Larger primes route
// the whole transform through Bluestein.
const maxDirectPrime = 61

// Plan holds everything precomputed for transforms of one length and
// direction: the factorization, twiddle tables, and scratch space. A Plan
// is NOT safe for concurrent use; callers that share a size across
// goroutines should obtain one plan per goroutine — this is the same
// discipline FFTW demands of fftw_execute with shared buffers.
type Plan struct {
	n     int
	dir   Direction
	strat strategy
	norm  bool // divide by n on inverse

	// mixed-radix state
	factors []int        // factorization of n: 2·2 pairs merged to 4, else ascending primes
	twiddle []complex128 // exp(∓2πi k/n) for k in [0, n)

	// Leaf roots for the specialized bottom kernels of the mixed-radix
	// recursion: the radix-3/4/5 roots of unity in transform direction,
	// read from the twiddle table once at plan time so the leaves never
	// index-divide. Only the entries whose radix appears in factors are
	// populated.
	lr3 [2]complex128 // ω₃, ω₃²
	lr4 complex128    // ω₄ = ∓i
	lr5 [4]complex128 // ω₅ … ω₅⁴
	lr8 [3]complex128 // ω₈, ω₈², ω₈³

	// bluestein state
	bs *bluesteinState

	// scratch holds the strided-read copy of the input for the
	// mixed-radix recursion (the combines themselves run in place).
	scratch []complex128
}

// PlanOpts adjusts plan construction.
type PlanOpts struct {
	// NormalizeInverse folds the 1/N scale into inverse transforms.
	NormalizeInverse bool
}

// NewPlan builds an execution plan for length-n transforms in the given
// direction, running the algorithm chooseStrategy picks for n.
func NewPlan(n int, dir Direction, opts PlanOpts) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fft: invalid transform length %d", n)
	}
	return newPlan(n, dir, chooseStrategy(n), opts), nil
}

// complexPlan is the unnormalized NewPlan for a length known to be
// valid: the inner plans of the 2-D and real plans.
func complexPlan(n int, dir Direction) *Plan {
	return newPlan(n, dir, chooseStrategy(n), PlanOpts{})
}

// newPlan builds a plan running strategy s, which must be legal for n.
func newPlan(n int, dir Direction, s strategy, opts PlanOpts) *Plan {
	p := &Plan{n: n, dir: dir, strat: s, norm: opts.NormalizeInverse}
	p.init()
	return p
}

// chooseStrategy is the planning rule for 1-D lengths. Where two
// algorithms apply they compute different bits, so the choice is fixed,
// not timed (EXPERIMENTS.md "Planning by rule" has the measurements
// behind each branch).
func chooseStrategy(n int) strategy {
	switch {
	case n <= 4:
		return stratDFT
	case isPow2(n):
		return stratRadix2
	case maxPrimeFactor(n) <= maxDirectPrime:
		return stratMixed
	default:
		return stratBluestein
	}
}

func (p *Plan) init() {
	switch p.strat {
	case stratDFT:
		p.twiddle = twiddleTable(p.n, p.dir)
		p.scratch = make([]complex128, p.n)
	case stratRadix2:
		p.twiddle = twiddleTable(p.n, p.dir)
	case stratMixed:
		p.factors = mergePow2Radices(factorize(p.n))
		p.twiddle = twiddleTable(p.n, p.dir)
		p.scratch = make([]complex128, p.n)
		for _, f := range p.factors {
			switch f {
			case 3:
				p.lr3[0] = p.twiddle[p.n/3]
				p.lr3[1] = p.twiddle[2*p.n/3]
			case 4:
				p.lr4 = p.twiddle[p.n/4]
			case 5:
				for j := 1; j <= 4; j++ {
					p.lr5[j-1] = p.twiddle[j*p.n/5]
				}
			case 8:
				for j := 1; j <= 3; j++ {
					p.lr8[j-1] = p.twiddle[j*p.n/8]
				}
			}
		}
	case stratBluestein:
		p.bs = newBluestein(p.n, p.dir)
	}
}

// Len reports the transform length the plan was built for.
func (p *Plan) Len() int { return p.n }

// Dir reports the transform direction.
func (p *Plan) Dir() Direction { return p.dir }

// Strategy reports the algorithm the plan executes ("dft", "radix2",
// "mixed", or "bluestein").
func (p *Plan) Strategy() string { return p.strat.String() }

// Execute transforms x in place. len(x) must equal Plan.Len.
//
//stitchlint:hotpath
func (p *Plan) Execute(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("fft: plan length %d, input length %d", p.n, len(x))
	}
	switch p.strat {
	case stratDFT:
		dftDirect(x, p.twiddle, p.scratch)
	case stratRadix2:
		radix2InPlace(x, p.twiddle)
	case stratMixed:
		p.mixedRadix(x)
	case stratBluestein:
		p.bs.execute(x)
	}
	if p.norm && p.dir == Inverse {
		scale := complex(1/float64(p.n), 0)
		for i := range x {
			x[i] *= scale
		}
	}
	return nil
}

// twiddleTable returns w[k] = exp(s·2πi k/n) with s = -1 forward, +1 inverse.
func twiddleTable(n int, dir Direction) []complex128 {
	w := make([]complex128, n)
	sign := -1.0
	if dir == Inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		ang := sign * 2 * math.Pi * float64(k) / float64(n)
		w[k] = cmplx.Exp(complex(0, ang))
	}
	return w
}

// dftDirect computes the DFT by definition using a precomputed twiddle
// table and plan-held scratch (the hot paths run allocation-free at
// steady state). Only used for very small n where it beats recursion
// overhead.
func dftDirect(x []complex128, tw, out []complex128) {
	n := len(x)
	if n == 1 {
		return
	}
	for k := 0; k < n; k++ {
		var acc complex128
		idx := 0
		for j := 0; j < n; j++ {
			acc += x[j] * tw[idx]
			idx += k
			if idx >= n {
				idx -= n
			}
		}
		out[k] = acc
	}
	copy(x, out)
}

// isPow2 reports whether n is a power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// factorize returns the prime factorization of n in ascending order,
// e.g. factorize(1392) = [2 2 2 2 3 29].
func factorize(n int) []int {
	var fs []int
	for n%2 == 0 {
		fs = append(fs, 2)
		n /= 2
	}
	for f := 3; f*f <= n; f += 2 {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

// mergePow2Radices regroups the run of 2s leading an ascending prime
// factorization into radix-8 and radix-4 steps, so the mixed-radix
// recursion runs a third (or half) as many fuse passes over the
// power-of-two portion — combine8/combine4 do the work of three/two
// combine2 levels in one sweep of dst. With k twos the grouping is
// ⌊k/3⌋ eights plus the remainder as fours (a remainder of one 2 trades
// an 8 for two 4s; only k=1 keeps a radix-2 step). Rewrites in place.
func mergePow2Radices(fs []int) []int {
	k := 0
	for k < len(fs) && fs[k] == 2 {
		k++
	}
	if k < 2 {
		return fs
	}
	eights, fours := k/3, 0
	switch k % 3 {
	case 1:
		eights--
		fours = 2
	case 2:
		fours = 1
	}
	out := fs[:0]
	for i := 0; i < eights; i++ {
		out = append(out, 8)
	}
	for i := 0; i < fours; i++ {
		out = append(out, 4)
	}
	out = append(out, fs[k:]...)
	return out
}

// maxPrimeFactor returns the largest prime factor of n (n ≥ 1); 1 for n=1.
func maxPrimeFactor(n int) int {
	fs := factorize(n)
	if len(fs) == 0 {
		return 1
	}
	return fs[len(fs)-1]
}

// nextPow2 returns the smallest power of two ≥ n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// IsFastLength reports whether n factors entirely into primes ≤ 7, the
// "nice" sizes the paper's future work suggests padding tiles to
// (e.g. 1536 = 2⁹·3). Transforms of fast lengths avoid both the generic
// prime butterfly and Bluestein.
func IsFastLength(n int) bool {
	if n <= 0 {
		return false
	}
	return maxPrimeFactor(n) <= 7
}

// NextFastLength returns the smallest length ≥ n that factors into primes
// ≤ 7. Used by the padding ablation (paper §VI.A).
func NextFastLength(n int) int {
	for {
		if IsFastLength(n) {
			return n
		}
		n++
	}
}
