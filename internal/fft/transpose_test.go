package fft

import (
	"math/rand"
	"testing"
)

// transposeSizes covers the shapes the blocked path must agree on with
// the oracle bit-for-bit: odd, prime, power-of-two, mixed, and sizes
// straddling the block edge.
var transposeSizes = []struct{ h, w int }{
	{9, 15},        // odd × odd
	{13, 17},       // prime × prime
	{7, 31},        // prime, wider than one block
	{16, 16},       // power of two, exactly one block
	{8, 64},        // power of two, several blocks
	{33, 18},       // one past the block edge × mixed radix
	{48, 40},       // mixed radix, multi-block
	{forkH, forkW}, // at or above the split floor: legs transpose concurrently
}

// TestBlockedTransposeBitIdentical pins the blocked-transpose column
// pass to the row-then-column oracle, whose strided gather is the
// arithmetic the transpose replaced: spectra must be bit-identical for
// both directions, serial and split.
func TestBlockedTransposeBitIdentical(t *testing.T) {
	for _, sz := range transposeSizes {
		for _, opts := range execMatrix(t) {
			for _, dir := range []Direction{Forward, Inverse} {
				src := randComplex(sz.h*sz.w, int64(sz.h*1000+sz.w))
				p, err := NewPlan2D(sz.h, sz.w, dir, opts)
				if err != nil {
					t.Fatalf("NewPlan2D(%d,%d): %v", sz.h, sz.w, err)
				}
				blocked := append([]complex128(nil), src...)
				if err := p.Execute(blocked); err != nil {
					t.Fatalf("blocked Execute: %v", err)
				}
				want := oracle2D(t, src, sz.h, sz.w, dir)
				for i := range blocked {
					if blocked[i] != want[i] {
						t.Fatalf("%dx%d dir=%v exec=%v/cap=%d: element %d differs: blocked=%v oracle=%v",
							sz.h, sz.w, dir, opts.Exec, opts.Pool.Cap(), i, blocked[i], want[i])
					}
				}
			}
		}
	}
}

// TestRealPlan2DBlockedTransposeBitIdentical is the r2c counterpart:
// Forward spectra and Inverse reconstructions must match the oracle
// exactly.
func TestRealPlan2DBlockedTransposeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sz := range transposeSizes {
		for _, opts := range execMatrix(t) {
			p, err := NewRealPlan2DOpts(sz.h, sz.w, Real2DOpts{Exec: opts.Exec, Pool: opts.Pool})
			if err != nil {
				t.Fatalf("NewRealPlan2DOpts(%d,%d): %v", sz.h, sz.w, err)
			}
			img := make([]float64, sz.h*sz.w)
			for i := range img {
				img[i] = rng.NormFloat64()
			}
			sh, sw := p.SpectrumDims()
			spec := make([]complex128, sh*sw)
			if err := p.Forward(spec, img); err != nil {
				t.Fatalf("blocked Forward: %v", err)
			}
			wantSpec := oracleRealForward(t, img, sz.h, sz.w)
			for i := range spec {
				if spec[i] != wantSpec[i] {
					t.Fatalf("%dx%d exec=%v/cap=%d: forward spectrum bin %d differs", sz.h, sz.w, opts.Exec, opts.Pool.Cap(), i)
				}
			}
			rec := make([]float64, sz.h*sz.w)
			if err := p.Inverse(rec, spec); err != nil {
				t.Fatalf("blocked Inverse: %v", err)
			}
			wantRec := oracleRealInverse(t, spec, sz.h, sz.w)
			for i := range rec {
				if rec[i] != wantRec[i] {
					t.Fatalf("%dx%d exec=%v/cap=%d: inverse sample %d differs", sz.h, sz.w, opts.Exec, opts.Pool.Cap(), i)
				}
			}
		}
	}
}

// TestExecuteFillMatchesSeparatePass checks the fused row-fill entry
// point against filling the buffer up front and calling Execute.
func TestExecuteFillMatchesSeparatePass(t *testing.T) {
	for _, opts := range execMatrix(t) {
		h, w := 12, 20
		src := randComplex(h*w, 42)
		p, err := NewPlan2D(h, w, Inverse, opts)
		if err != nil {
			t.Fatal(err)
		}
		separate := append([]complex128(nil), src...)
		if err := p.Execute(separate); err != nil {
			t.Fatal(err)
		}
		fused := make([]complex128, h*w)
		err = p.ExecuteFill(fused, func(dst []complex128, r int) {
			copy(dst, src[r*w:(r+1)*w])
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range fused {
			if fused[i] != separate[i] {
				t.Fatalf("exec=%v/cap=%d: element %d differs", opts.Exec, opts.Pool.Cap(), i)
			}
		}
	}
}

// TestInverseFillMatchesInverse checks the r2c fused staging entry point
// against the copy-then-Inverse path.
func TestInverseFillMatchesInverse(t *testing.T) {
	for _, opts := range execMatrix(t) {
		h, w := 10, 24
		p, err := NewRealPlan2DOpts(h, w, Real2DOpts{Exec: opts.Exec, Pool: opts.Pool})
		if err != nil {
			t.Fatal(err)
		}
		sh, sw := p.SpectrumDims()
		// A valid half spectrum: forward-transform a random image.
		rng := rand.New(rand.NewSource(9))
		img := make([]float64, h*w)
		for i := range img {
			img[i] = rng.NormFloat64()
		}
		spec := make([]complex128, sh*sw)
		if err := p.Forward(spec, img); err != nil {
			t.Fatal(err)
		}
		separate := make([]float64, h*w)
		if err := p.Inverse(separate, spec); err != nil {
			t.Fatal(err)
		}
		fused := make([]float64, h*w)
		err = p.InverseFill(fused, func(dst []complex128, r int) {
			copy(dst, spec[r*sw:(r+1)*sw])
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range fused {
			if fused[i] != separate[i] {
				t.Fatalf("exec=%v/cap=%d: sample %d differs", opts.Exec, opts.Pool.Cap(), i)
			}
		}
	}
}

// TestTransposeBlocksCounter checks that executions advance the
// process-wide block counter.
func TestTransposeBlocksCounter(t *testing.T) {
	p, err := NewPlan2D(32, 32, Forward, Plan2DOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data := randComplex(32*32, 3)
	before := TransposeBlocks()
	if err := p.Execute(data); err != nil {
		t.Fatal(err)
	}
	// 32×32 with a 16-element block edge: 2×2 blocks per transpose, two
	// transposes (in and back) per execute.
	if got, want := TransposeBlocks(), before+8; got != want {
		t.Fatalf("TransposeBlocks after execute = %d, want %d", got, want)
	}
}
