package stitch

import (
	"fmt"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/gpu"
	"hybridstitch/internal/pciam"
	"hybridstitch/internal/tile"
)

// FFTVariant selects the spectrum layout of the per-pair transforms. The
// transform size is not part of it: fft.TransformSize chooses that, for
// either layout (transformSize). This file is the only place that knows
// what a layout means — it builds the host aligner and the device
// operator set for one and sizes its transforms; everything else in the
// package handles opaque spectra. All six implementations support both.
type FFTVariant string

const (
	// VariantComplex is the paper's baseline: full complex transforms.
	VariantComplex FFTVariant = ""
	// VariantReal uses real-to-complex transforms and half spectra
	// (paper §VI.A future work).
	VariantReal FFTVariant = "real"
)

// transformSize is the frame g's tiles are transformed in under the
// run's layout: the tile size, or a larger one the size rule models
// faster (paper §VI.A: pad to small-prime sizes). The pciam constructors
// ask fft.TransformSize the same question, so the host aligners, the
// device plans and every buffer sized here agree.
func (o Options) transformSize(g tile.Grid) (pw, ph int) {
	return fft.TransformSize(g.TileW, g.TileH, o.FFTVariant == VariantReal)
}

// transformWords is the per-tile transform footprint in complex128
// words at transform size pw×ph: the full spectrum for the complex
// layout, the ph×(pw/2+1) half spectrum — roughly half — for the real
// one. Host-cache and device-pool accounting both derive from it, so the
// r2c saving and the padding cost show up in memgov pressure and GPU
// pool capacity alike.
func (v FFTVariant) transformWords(pw, ph int) int64 {
	if v == VariantReal {
		return int64(ph) * int64(pw/2+1)
	}
	return int64(ph) * int64(pw)
}

// aligner is the per-worker alignment engine; both pciam aligner types
// satisfy it.
type aligner interface {
	Transform(*tile.Gray16) ([]complex128, error)
	Displace(a, b *tile.Gray16, fa, fb []complex128) (tile.Displacement, error)
	// DisplaceTiles transforms both tiles itself: the Fiji baseline's
	// no-reuse path.
	DisplaceTiles(a, b *tile.Gray16) (tile.Displacement, error)
	// Close returns the aligner to the pciam pool.
	Close()
}

var (
	_ aligner = (*pciam.Aligner)(nil)
	_ aligner = (*pciam.RealAligner)(nil)
)

// acquireAligner gets an aligner (plans and scratch included) for the
// run's FFT variant. The pciam constructors draw on a pool, so per-run
// and per-worker acquisition reuses warm memory across runs instead of
// re-allocating plans and buffers every time. Close it when the worker
// is done.
func acquireAligner(g tile.Grid, opts Options) (aligner, error) {
	po := opts.pciamOptions()
	switch opts.FFTVariant {
	case VariantComplex:
		return pciam.NewAligner(g.TileW, g.TileH, po)
	case VariantReal:
		return pciam.NewRealAligner(g.TileW, g.TileH, po)
	default:
		return nil, fmt.Errorf("stitch: unknown FFT variant %q", opts.FFTVariant)
	}
}

// deviceOps is the device-side counterpart of the pooled aligner: what
// one GPU needs to run the paper's operators under the run's FFT variant.
// It owns the transform buffer pool, one forward plan per FFT-issuing
// stream ("lane" — plans carry scratch, so a plan serves one stream, the
// cuFFT one-handle-per-stream rule), the displacement stream's inverse
// plan and, for the complex layout, the buffer the correlation surface is
// written to. The GPU schedulers call its three operations on streams of
// their choosing and never see the layout.
type deviceOps struct {
	pool    *devicePool
	scratch *gpu.Buffer // complex layout only: the fused kernel's surface

	// upload copies a tile's staged pixels (run.stage) into a pool buffer.
	upload func(st *gpu.Stream, buf *gpu.Buffer, pix []float64, after ...*gpu.Event) *gpu.Event
	// forward transforms an uploaded buffer in place with lane's plan.
	forward func(st *gpu.Stream, lane int, buf *gpu.Buffer, after ...*gpu.Event) *gpu.Event
	// displace runs NCC, inverse transform and max reduction over two
	// transformed buffers as one fused launch; red holds the peak once
	// the event resolves. The operands are only read, so the launch
	// replays cleanly after a transient kernel fault.
	displace func(st *gpu.Stream, fa, fb *gpu.Buffer, red *gpu.Reduction, after ...*gpu.Event) *gpu.Event
}

// newDeviceOps builds the operator set for dev at the run's transform
// size: lanes forward plans, one inverse plan, and opts.PoolTransforms
// buffers of the layout's transformWords each. Close it when the run is
// done.
func (r *run) newDeviceOps(dev *gpu.Device, lanes int) (*deviceOps, error) {
	g, opts, h, w := r.g, r.opts, r.ph, r.pw
	words := opts.FFTVariant.transformWords(w, h)
	d := &deviceOps{}
	var alloc func() (*gpu.Buffer, error)
	surface := false // whether displace writes its correlation surface to a device buffer
	var err error
	switch opts.FFTVariant {
	case VariantComplex:
		po := fft.Plan2DOpts{Pool: opts.FFTPool}
		plans := make([]*fft.Plan2D, lanes+1) // the last is the inverse
		for i := range plans {
			dir := fft.Forward
			if i == lanes {
				dir = fft.Inverse
			}
			if plans[i], err = fft.NewPlan2D(h, w, dir, po); err != nil {
				return nil, err
			}
		}
		alloc = func() (*gpu.Buffer, error) { return dev.Alloc(words) }
		surface = true
		d.upload = (*gpu.Stream).MemcpyH2DReal
		d.forward = func(st *gpu.Stream, lane int, buf *gpu.Buffer, after ...*gpu.Event) *gpu.Event {
			return st.FFT2D(plans[lane], buf, after...)
		}
		d.displace = func(st *gpu.Stream, fa, fb *gpu.Buffer, red *gpu.Reduction, after ...*gpu.Event) *gpu.Event {
			return st.FusedNCCInverseMax(plans[lanes], d.scratch, fa, fb, red, after...)
		}
	case VariantReal:
		// Pixels upload packed two per word into the half-sized buffer,
		// the r2c transform runs in place, the NCC covers the half
		// spectrum (Hermitian symmetry supplies the mirrored bins) and the
		// c2r inverse hands the reduction a real surface held in stream
		// scratch: the fused kernel writes no device buffer.
		po := fft.Real2DOpts{Pool: opts.FFTPool}
		plans := make([]*fft.RealPlan2D, lanes+1) // the last runs the inverse
		for i := range plans {
			if plans[i], err = fft.NewRealPlan2DOpts(h, w, po); err != nil {
				return nil, err
			}
		}
		alloc = func() (*gpu.Buffer, error) { return dev.AllocSpectrum(h, w) }
		d.upload = (*gpu.Stream).MemcpyH2DPackedReal
		d.forward = func(st *gpu.Stream, lane int, buf *gpu.Buffer, after ...*gpu.Event) *gpu.Event {
			return st.RealFFT2D(plans[lane], buf, after...)
		}
		d.displace = func(st *gpu.Stream, fa, fb *gpu.Buffer, red *gpu.Reduction, after ...*gpu.Event) *gpu.Event {
			return st.FusedNCCInverseMaxReal(plans[lanes], fa, fb, red, after...)
		}
	default:
		return nil, fmt.Errorf("stitch: no device operators for FFT variant %q", opts.FFTVariant)
	}
	if d.pool, err = newDevicePool(dev, g, opts.PoolTransforms, words, alloc, opts.Obs); err != nil {
		return nil, err
	}
	if surface {
		if d.scratch, err = alloc(); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// staging returns a pixel frame of the run's transform size, the
// host-side source of device uploads.
func (r *run) staging() []float64 { return make([]float64, r.pw*r.ph) }

// stage writes img into a staging frame, padded as the host aligners pad.
func (r *run) stage(pix []float64, img *tile.Gray16) { img.ToFloatFrame(pix, r.pw) }

// resolvePeak turns the index a device reduction found on the pw×ph
// correlation surface into the pair's displacement (the CPU-side CCF).
func (r *run) resolvePeak(a, b *tile.Gray16, idx int) tile.Displacement {
	return pciam.ResolveIn(a, b, idx%r.pw, idx/r.pw, r.pw, r.ph)
}

// close frees the pool and the scratch buffer back to the device.
func (d *deviceOps) close() {
	d.pool.drain()
	if d.scratch != nil {
		_ = d.scratch.Free()
	}
}
