package stitch

import (
	"hybridstitch/internal/fft"
	"hybridstitch/internal/gpu"
	"hybridstitch/internal/pciam"
	"hybridstitch/internal/tile"
)

// FFTVariant changes nothing: every run transforms real-to-complex into
// half spectra (the paper's §VI.A future-work optimization). The type
// and VariantReal stay for callers that still set Options.FFTVariant.
type FFTVariant string

// VariantReal is the one spectrum layout: real-to-complex transforms and
// half spectra.
const VariantReal FFTVariant = "real"

// This file is the only place that knows what the spectrum layout
// means: it builds the host aligner and the device operator set and
// sizes their transforms; everything else in the package handles opaque
// spectra.

// transformSize is the frame g's tiles are transformed in: the tile
// size, or a larger one the size rule models faster (paper §VI.A: pad to
// small-prime sizes). pciam.NewRealAligner asks fft.TransformSize the
// same question, so the host aligners, the device plans and every buffer
// sized here agree.
func transformSize(g tile.Grid) (pw, ph int) {
	return fft.TransformSize(g.TileW, g.TileH, true)
}

// transformWords is the per-tile transform footprint in complex128 words
// at transform size pw×ph: the ph×(pw/2+1) half spectrum. Host-cache and
// device-pool accounting both derive from it, so the padding cost shows
// up in memgov pressure and GPU pool capacity alike.
func transformWords(pw, ph int) int64 {
	return int64(ph) * int64(pw/2+1)
}

// acquireAligner gets an aligner (plan and scratch included) for g's
// tiles. The pciam constructor draws on a pool, so per-run and
// per-worker acquisition reuses warm memory across runs instead of
// re-allocating plans and buffers every time. Close it when the worker
// is done.
func acquireAligner(g tile.Grid, opts Options) (*pciam.RealAligner, error) {
	return pciam.NewRealAligner(g.TileW, g.TileH, opts.pciamOptions())
}

// deviceOps is the device-side counterpart of the pooled aligner: what
// one GPU needs to run the paper's operators. It owns the transform
// buffer pool, one forward plan per FFT-issuing stream ("lane" — plans
// carry scratch, so a plan serves one stream, the cuFFT
// one-handle-per-stream rule) and the displacement stream's inverse
// plan. Pixels upload packed two per word into the half-sized buffer,
// the r2c transform runs in place, the NCC covers the half spectrum
// (Hermitian symmetry supplies the mirrored bins) and the c2r inverse
// hands the reduction a real surface held in stream scratch: the fused
// kernel writes no device buffer. The GPU schedulers call its three
// operations on streams of their choosing.
type deviceOps struct {
	pool  *devicePool
	plans []*fft.RealPlan2D // one per lane, then the inverse's
}

// upload copies a tile's staged pixels (run.stage) into a pool buffer.
func (d *deviceOps) upload(st *gpu.Stream, buf *gpu.Buffer, pix []float64, after ...*gpu.Event) *gpu.Event {
	return st.MemcpyH2DPackedReal(buf, pix, after...)
}

// forward transforms an uploaded buffer in place with lane's plan.
func (d *deviceOps) forward(st *gpu.Stream, lane int, buf *gpu.Buffer, after ...*gpu.Event) *gpu.Event {
	return st.RealFFT2D(d.plans[lane], buf, after...)
}

// displace runs NCC, inverse transform and max reduction over two
// transformed buffers as one fused launch; red holds the peak once the
// event resolves. The operands are only read, so the launch replays
// cleanly after a transient kernel fault.
func (d *deviceOps) displace(st *gpu.Stream, fa, fb *gpu.Buffer, red *gpu.Reduction, after ...*gpu.Event) *gpu.Event {
	return st.FusedNCCInverseMaxReal(d.plans[len(d.plans)-1], fa, fb, red, after...)
}

// newDeviceOps builds the operator set for dev at the run's transform
// size: lanes forward plans, one inverse plan, and opts.PoolTransforms
// half-spectrum buffers. Close it when the run is done.
func (r *run) newDeviceOps(dev *gpu.Device, lanes int) (*deviceOps, error) {
	h, w := r.ph, r.pw
	d := &deviceOps{plans: make([]*fft.RealPlan2D, lanes+1)}
	var err error
	for i := range d.plans {
		if d.plans[i], err = fft.NewRealPlan2DOpts(h, w, fft.Real2DOpts{Pool: r.opts.FFTPool}); err != nil {
			return nil, err
		}
	}
	alloc := func() (*gpu.Buffer, error) { return dev.AllocSpectrum(h, w) }
	if d.pool, err = newDevicePool(dev, r.g, r.opts.PoolTransforms, transformWords(w, h), alloc, r.opts.Obs); err != nil {
		return nil, err
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

// close frees the pool back to the device.
func (d *deviceOps) close() { d.pool.drain() }
