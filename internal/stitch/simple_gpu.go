package stitch

import (
	"hybridstitch/internal/gpu"
	"hybridstitch/internal/obs"
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

// simpleGPU walks the pair order on one stream. The pair sequence and
// the host side — reads, casualties, results — are the engine's, the
// operators and the device residency are the shared device side; this
// function adds the schedule: everything in program order, every event
// waited on. It returns the peak device residency and the transform
// count.
func (r *run) simpleGPU() (peak, transforms int, err error) {
	g, opts, fp := r.g, r.opts, r.fp
	dev := opts.Devices[0]
	stream, err := dev.NewStream("default")
	if err != nil {
		return 0, 0, err
	}
	defer stream.Close()
	// The single stream serializes every kernel: one forward lane.
	ops, err := r.newDeviceOps(dev, 1)
	if err != nil {
		return 0, 0, err
	}
	defer ops.close()
	resident := newDeviceResidency(g, ops.pool, g.Pairs())

	pix := r.staging()
	load := func(c tile.Coord, psp *obs.Span) error {
		img, err := r.read(c, psp)
		if err != nil {
			return err
		}
		r.stage(pix, img)
		buf, err := ops.pool.acquire(nil)
		if err != nil {
			return err
		}
		// Synchronous upload and transform: wait on each event, the
		// Simple-GPU anti-pattern under study. The sequence is idempotent
		// (same pixels, same buffer), so a transient device fault is
		// absorbed by replaying it.
		usp := psp.Child(obs.SpanUploadFFT, tileAttr(c))
		err = fp.retry.Do(func() error {
			if err := ops.upload(stream, buf, pix).Wait(); err != nil {
				return err
			}
			return ops.forward(stream, 0, buf).Wait()
		})
		usp.End()
		if err != nil {
			// Return the acquired buffer or a later acquire deadlocks on
			// the drained pool.
			ops.pool.release(buf)
			return err
		}
		resident.hold(c, deviceTile{img: img, buf: buf})
		return nil
	}

	for _, p := range opts.Traversal.PairOrder(g) {
		err := r.pairWith(p, load, func(psp *obs.Span) error {
			a, b := resident.tile(p.Neighbor()), resident.tile(p.Coord)

			// The displacement tail is one fused launch per pair
			// (gpu.launch.fused), replayed on a transient kernel fault.
			var red gpu.Reduction
			dsp := psp.Child(obs.SpanDisp, pairAttr(p))
			err := fp.retry.Do(func() error {
				return ops.displace(stream, a.buf, b.buf, &red).Wait()
			})
			dsp.End()
			if err != nil {
				return r.settle(p, tile.Displacement{}, err)
			}

			// CCF on the CPU, inline (the gap in the Fig 7 profile).
			csp := psp.Child(obs.SpanCCF, pairAttr(p))
			d := r.resolvePeak(a.img, b.img, red.Idx)
			csp.End()
			return r.settle(p, d, nil)
		})
		// The pair is settled on every path; its device references go
		// with it (a lost tile was never held, so its release only counts).
		if err == nil {
			err = resident.releasePair(p)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return ops.pool.peakInUse(), resident.transforms, nil
}
