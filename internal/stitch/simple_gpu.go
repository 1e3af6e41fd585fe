package stitch

import (
	"hybridstitch/internal/fft"
	"hybridstitch/internal/gpu"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/pciam"
	"hybridstitch/internal/tile"
)

// SimpleGPU is the direct port of the sequential implementation to the
// GPU (paper §IV.A): single CPU thread, one stream (CUDA's default
// stream), synchronous copies — every operation waits for the previous
// one. It keeps the Simple-CPU improvements: forward transforms stay in
// device memory in a reference-counted buffer pool and are freed when a
// tile's four pairs are done, NCC and the max reduction run as device
// kernels, and only the reduction's scalar result is copied back. The
// profiler timeline it produces is the paper's Fig 7: one kernel at a
// time with gaps for the CPU work between launches.
type SimpleGPU struct{}

// Name implements Stitcher.
func (SimpleGPU) Name() string { return "simple-gpu" }

// Run implements Stitcher.
func (sg SimpleGPU) Run(src Source, opts Options) (*Result, error) {
	r, err := newGPURun(src, opts, sg.Name())
	if err != nil {
		return nil, err
	}
	return r.publish(r.endWith(r.simpleGPU()))
}

// simpleGPU walks the pair order on one stream. The host side — reads,
// the image cache, casualties, results — is the engine's; this function
// adds the device side: buffer pool, device refcounts and kernels. It
// returns the peak device residency and the transform count.
func (r *run) simpleGPU() (peakBufs, transforms int, err error) {
	g, opts, fp := r.g, r.opts, r.fp
	realFFT := opts.FFTVariant == VariantReal
	dev := opts.Devices[0]
	stream, err := dev.NewStream("default")
	if err != nil {
		return 0, 0, err
	}
	defer stream.Close()

	pool, err := newDevicePool(dev, g, opts.PoolTransforms, opts.FFTVariant, opts.Obs)
	if err != nil {
		return 0, 0, err
	}
	defer pool.drain()
	// One scratch buffer for the NCC/inverse product: the full complex
	// spectrum, or the h×(w/2+1) half spectrum of the r2c path.
	var scratch *gpu.Buffer
	if realFFT {
		scratch, err = dev.AllocSpectrum(g.TileH, g.TileW)
	} else {
		scratch, err = dev.Alloc(opts.FFTVariant.transformWords(g))
	}
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = scratch.Free() }()

	// The single stream serializes every kernel, so one real plan (with
	// its internal scratch) is safe to share between forward and inverse.
	var fwdPlan, invPlan *fft.Plan2D
	var realPlan *fft.RealPlan2D
	if realFFT {
		realPlan, err = opts.Planner.RealPlan2DOpts(g.TileH, g.TileW, opts.fftReal2DOpts())
	} else {
		fwdPlan, err = opts.Planner.Plan2D(g.TileH, g.TileW, fft.Forward, opts.fftPlan2DOpts())
		if err == nil {
			invPlan, err = opts.Planner.Plan2D(g.TileH, g.TileW, fft.Inverse, opts.fftPlan2DOpts())
		}
	}
	if err != nil {
		return 0, 0, err
	}

	bufs := make(map[int]*gpu.Buffer)
	devRC := newRefCounter(g)

	pix := make([]float64, g.TileW*g.TileH)
	ensure := func(c tile.Coord, psp *obs.Span) error {
		i := g.Index(c)
		if _, ok := bufs[i]; ok {
			return nil
		}
		// A degraded tile stays degraded: re-attempting the read here
		// would double-store the cache entry and skew hit counts.
		if err := r.ds.tileBad(c); err != nil {
			return err
		}
		img, err := r.read(c, psp)
		if err != nil {
			return err
		}
		if err := r.cache.put(i, img, nil); err != nil {
			return err
		}
		buf := pool.acquire()
		if err := img.ToFloat(pix); err != nil {
			pool.release(buf)
			return err
		}
		// Synchronous upload and transform: wait on each event, the
		// Simple-GPU anti-pattern under study. The sequence is idempotent
		// (same pixels, same buffer), so a transient device fault is
		// absorbed by replaying it.
		usp := psp.Child(obs.SpanUploadFFT, tileAttr(c))
		err = fp.retry.Do(func() error {
			if realFFT {
				// Packed upload into the half-sized buffer, then the
				// in-place r2c transform.
				if err := stream.MemcpyH2DPackedReal(buf, pix).Wait(); err != nil {
					return err
				}
				return stream.RealFFT2D(realPlan, buf).Wait()
			}
			if err := stream.MemcpyH2DReal(buf, pix).Wait(); err != nil {
				return err
			}
			return stream.FFT2D(fwdPlan, buf).Wait()
		})
		usp.End()
		if err != nil {
			// Return the acquired buffer or a later acquire deadlocks on
			// the drained pool.
			pool.release(buf)
			return err
		}
		transforms++
		bufs[i] = buf
		peakBufs = max(peakBufs, len(bufs))
		return nil
	}

	// settle closes the pair on both sides: device refcounts first
	// (degraded tiles never got a device buffer), then the engine's host
	// side.
	settle := func(p tile.Pair, d tile.Displacement, cause error) error {
		for _, c := range [2]tile.Coord{p.Coord, p.Neighbor()} {
			i := g.Index(c)
			free, err := devRC.release(i)
			if err != nil {
				return err
			}
			if b, ok := bufs[i]; free && ok {
				pool.release(b)
				delete(bufs, i)
			}
		}
		return r.settle(p, d, cause)
	}

	doPair := func(p tile.Pair) error {
		psp := r.root.Child(obs.SpanPair, pairAttr(p))
		defer psp.End()
		for _, c := range [2]tile.Coord{p.Coord, p.Neighbor()} {
			if err := ensure(c, psp); err != nil {
				if fp.degrade {
					r.lose(c, err)
					err = pairCause(p, c, err)
				}
				return settle(p, tile.Displacement{}, err)
			}
		}
		bi := g.Index(p.Coord)
		ai := g.Index(p.Neighbor())
		aImg, _ := r.cache.get(ai)
		bImg, _ := r.cache.get(bi)

		// The displacement tail — NCC, inverse FFT, max reduction — is one
		// fused launch per pair (gpu.launch.fused). The operands are
		// rewritten from the start, so the launch replays cleanly on a
		// transient kernel fault. The NCC runs over the half spectrum in
		// the real path — Hermitian symmetry supplies the mirrored bins —
		// and the c2r inverse hands the reduction a real surface.
		var red gpu.Reduction
		dsp := psp.Child(obs.SpanDisp, pairAttr(p))
		err := fp.retry.Do(func() error {
			if realFFT {
				return stream.FusedNCCInverseMaxReal(realPlan, bufs[ai], bufs[bi], &red).Wait()
			}
			return stream.FusedNCCInverseMax(invPlan, scratch, bufs[ai], bufs[bi], &red).Wait()
		})
		dsp.End()
		if err != nil {
			return settle(p, tile.Displacement{}, err)
		}

		// CCF on the CPU, inline (the gap in the Fig 7 profile).
		csp := psp.Child(obs.SpanCCF, pairAttr(p))
		d := pciam.Resolve(aImg, bImg, red.Idx%g.TileW, red.Idx/g.TileW, opts.pciamOptions())
		csp.End()
		return settle(p, d, nil)
	}

	for _, p := range opts.Traversal.PairOrder(g) {
		if err := doPair(p); err != nil {
			return 0, 0, err
		}
	}
	return peakBufs, transforms, nil
}
