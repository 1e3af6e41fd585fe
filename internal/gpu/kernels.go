package gpu

import (
	"fmt"

	"hybridstitch/internal/fault"
	"hybridstitch/internal/fft"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/pciam"
)

// This file provides the stitching kernels as typed stream operations —
// the analogues of the paper's cuFFT calls and its two custom CUDA
// kernels (the shared-memory NCC kernel and the Harris-style max
// reduction). Each executes the reference math on a device buffer, so the
// GPU path is bit-identical to the CPU path.

// packedWords is the device footprint of n float64 values packed two per
// complex128 word. For a w×h tile it never exceeds the h×(w/2+1)
// half-spectrum footprint, so one spectrum-sized buffer serves both the
// packed pixel upload and the in-place transform result.
func packedWords(n int) int { return (n + 1) / 2 }

// packReals stores src two values per word: word j = (src[2j], src[2j+1]).
func packReals(dst []complex128, src []float64) {
	n := len(src)
	for j := 0; j < n/2; j++ {
		dst[j] = complex(src[2*j], src[2*j+1])
	}
	if n%2 == 1 {
		dst[n/2] = complex(src[n-1], 0)
	}
}

// unpackReals is the inverse of packReals for n = len(dst) values.
func unpackReals(dst []float64, src []complex128) {
	n := len(dst)
	for j := 0; j < n/2; j++ {
		v := src[j]
		dst[2*j] = real(v)
		dst[2*j+1] = imag(v)
	}
	if n%2 == 1 {
		dst[n-1] = real(src[n/2])
	}
}

// RealFFT2D executes the forward r2c transform in place on a device
// buffer holding packed real pixels (MemcpyH2DPackedReal layout): on
// completion the buffer's first h×(w/2+1) words hold the half spectrum.
// The caller owns plan lifetime and must not share one plan across
// concurrently executing kernels (cuFFT imposes the same rule per plan
// handle — the paper's FFT stage uses one thread for exactly this
// reason).
func (s *Stream) RealFFT2D(plan *fft.RealPlan2D, buf *Buffer, after ...*Event) *Event {
	return s.launch(fault.SiteGPUKernelFFT, "rfft2d", func() error {
		sh, sw := plan.SpectrumDims()
		n := plan.H() * plan.W()
		if int64(sh*sw) > buf.Words() || int64(packedWords(n)) > buf.Words() {
			return fmt.Errorf("gpu: rfft2d plan %dx%d exceeds buffer of %d words", plan.H(), plan.W(), buf.Words())
		}
		img := s.realsScratch(n)
		unpackReals(img, buf.Data)
		return plan.Forward(buf.Data[:sh*sw], img)
	}, after...)
}

// Reduction receives the peak a fused displacement kernel found — the
// only datum the pipeline copies back to the host per pair, which is how
// the paper minimizes D2H traffic. Read it only after the kernel's event
// has resolved.
type Reduction struct {
	Idx int
	Mag float64
}

// FusedNCCInverseMaxReal runs the whole displacement tail — normalized
// conjugate multiply over the half spectrum, inverse c2r transform,
// max-abs reduction — as one kernel launch, writing the peak into out.
// The NCC rows feed the inverse's row pass directly (fft.InverseFill),
// so the NCC spectrum never materializes as a separate full-size pass,
// and the correlation surface lives only in stream scratch: it is never
// packed back into a device buffer, so the kernel takes no destination.
// The result is bit-identical to the host aligner's. The launch is the
// gpu.kernel.ncc fault site.
func (s *Stream) FusedNCCInverseMaxReal(plan *fft.RealPlan2D, fa, fb *Buffer, out *Reduction, after ...*Event) *Event {
	return s.launch(fault.SiteGPUKernelNCC, "ncc+irfft2d+maxabs", func() error {
		sh, sw := plan.SpectrumDims()
		if int64(sh*sw) > fa.Words() || int64(sh*sw) > fb.Words() {
			return fmt.Errorf("gpu: fused ncc over %d half-spectrum words exceeds a buffer", sh*sw)
		}
		img := s.realsScratch(plan.H() * plan.W())
		err := plan.InverseFill(img, func(row []complex128, r int) {
			o := r * sw
			pciam.NCCSpectrum(row, fa.Data[o:o+sw], fb.Data[o:o+sw])
		})
		if err != nil {
			return err
		}
		out.Idx, out.Mag = pciam.MaxAbsReal(img)
		s.countFused()
		return nil
	}, after...)
}

// countFused advances the gpu.launch.fused obs counter when a recorder is
// attached.
func (s *Stream) countFused() {
	if rec := s.dev.cfg.Obs; rec != nil {
		rec.Counter(obs.CounterGPULaunchFused).Add(1)
	}
}
