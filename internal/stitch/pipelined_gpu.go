package stitch

import (
	"fmt"
	"sync"

	"hybridstitch/internal/gpu"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/pipeline"
	"hybridstitch/internal/tile"
)

// PipelinedGPU is the paper's headline implementation (Fig 8): one
// six-stage execution pipeline per GPU —
//
//	read → copier → FFT → bookkeeping → displacement → CCF
//
// with the image grid decomposed spatially into one row-band partition
// per device. Stages 2, 3, and 5 each own a CUDA stream so copies and
// kernels from different stages overlap on the device (the Fig 9
// profile); stage 6's CCF threads are CPU-side and shared across all
// GPUs, and the only per-pair device-to-host transfer is the scalar
// max-reduction result. Device memory is a fixed buffer pool recycled by
// reference counting through the bookkeeping stage, exactly the paper's
// memory-management design (stage 5 posts release entries to the queue
// between stages 3 and 4).
type PipelinedGPU struct{}

// Name implements Stitcher.
func (PipelinedGPU) Name() string { return "pipelined-gpu" }

// gpuTile moves a tile through the per-device stages. failed marks a
// tile whose read was lost to a persistent fault (degrade mode): the
// marker floats through the copier and FFT stages untouched — never
// acquiring a device buffer — so bookkeeping still receives exactly one
// terminal message per tile.
type gpuTile struct {
	coord tile.Coord
	deviceTile
	failed error
}

// gpuBKMsg is a message to the bookkeeping stage: either a completed
// transform or a buffer-release notice from the displacement stage.
type gpuBKMsg struct {
	isRelease bool
	t         gpuTile
	release   tile.Coord
}

// gpuPair is a ready pair for the displacement stage.
type gpuPair struct {
	pair tile.Pair
	a, b deviceTile
}

// ccfTask is the CPU-side tail of one pair: resolve the reduction peak
// with cross-correlation factors.
type ccfTask struct {
	pair       tile.Pair
	aImg, bImg *tile.Gray16
	peakIdx    int
}

// needOrder returns the coordinates band b must read and transform, in
// the given traversal order restricted to the rows it reads.
func needOrder(g tile.Grid, b tile.Band, tr Traversal) []tile.Coord {
	bg := b.Grid(g)
	out := make([]tile.Coord, 0, bg.NumTiles())
	for _, c := range tr.Order(bg) {
		out = append(out, tile.Coord{Row: c.Row + b.Need, Col: c.Col})
	}
	return out
}

// Run implements Stitcher.
func (pg PipelinedGPU) Run(src Source, opts Options) (*Result, error) {
	r, err := newGPURun(src, opts, pg.Name())
	if err != nil {
		return nil, err
	}
	return r.publish(r.endWith(r.pipelineGPU()))
}

// pipelineGPU builds and runs one six-stage pipeline per device. Reads,
// casualties, results, settlement and the dependency bookkeeping are the
// engine's, the operators and the device residency are the shared device
// side; the stages add the streams, the queues and the threads. It
// returns the summed peak pool occupancy and the transform count.
func (r *run) pipelineGPU() (peak, transforms int, err error) {
	g, opts, fp := r.g, r.opts, r.fp
	var stageSpans []*obs.Span
	stageSpan := func(name string) *obs.Span {
		sp := r.root.ChildOn(obs.TrackStagePrefix+name, name)
		stageSpans = append(stageSpans, sp)
		return sp
	}

	p := pipeline.New()
	p.Observe(opts.Obs)
	r.note = p.Note
	qCCF := pipeline.AddQueue[ccfTask](p, "disp→ccf", opts.QueueCap)
	parts := tile.SplitRows(g.Rows, len(opts.Devices))
	var wgDisp sync.WaitGroup
	wgDisp.Add(len(parts))

	devOps := make([]*deviceOps, 0, len(parts))
	residents := make([]*deviceResidency, 0, len(parts))
	streams := make([]*gpu.Stream, 0, (2+opts.FFTStreams)*len(parts))
	cleanup := func() {
		for _, s := range streams {
			s.Close()
		}
		for _, ops := range devOps {
			ops.close()
		}
	}
	// constructionFail handles errors raised while stages of earlier
	// devices are already running: a stage failure aborts the shared
	// queues, which can surface here as a secondary ErrAborted from a
	// Push — wait for the launched stages (they unblock via the aborted
	// queues) and report the pipeline's FIRST error as the root cause.
	constructionFail := func(err error) error {
		p.Abort(err) // unblock already-launched stages
		if werr := p.Wait(); werr != nil {
			err = werr
		}
		cleanup()
		return err
	}
	statQueues := []statQueue{qCCF}

	for d := range parts {
		pt := parts[d]
		dev := opts.Devices[d]
		// One FFT-issuing thread per stream; the paper uses exactly one
		// (Fermi cuFFT serialization), Hyper-Q configurations use more.
		ops, err := r.newDeviceOps(dev, opts.FFTStreams)
		if err != nil {
			return 0, 0, constructionFail(err)
		}
		devOps = append(devOps, ops)
		// Stages 2 and 5 own one stream each, stage 3 one per FFT thread.
		names := []string{"copy", "disp"}
		for w := 0; w < opts.FFTStreams; w++ {
			names = append(names, fmt.Sprintf("fft%d", w))
		}
		own := make([]*gpu.Stream, len(names))
		for i, name := range names {
			if own[i], err = dev.NewStream(name); err != nil {
				return 0, 0, constructionFail(err)
			}
			streams = append(streams, own[i])
		}
		copyStream, dispStream, fftStreams := own[0], own[1], own[2:]

		need := needOrder(g, pt, opts.Traversal)
		partPairs := pt.Pairs(g)
		// Device references count how many of THIS partition's pairs use
		// each tile's transform.
		resident := newDeviceResidency(g, ops.pool, partPairs)
		residents = append(residents, resident)

		name := func(s string) string { return fmt.Sprintf("%s[gpu%d]", s, d) }
		qCoords := pipeline.AddQueue[tile.Coord](p, name("coords"), len(need))
		for _, c := range need {
			if err := qCoords.Push(c); err != nil {
				return 0, 0, constructionFail(err)
			}
		}
		qCoords.Close()
		qRead := pipeline.AddQueue[gpuTile](p, name("read→copy"), opts.QueueCap)
		qCopied := pipeline.AddQueue[gpuTile](p, name("copy→fft"), opts.QueueCap)
		// All bookkeeping pushes are non-blocking: capacity covers every
		// transform arrival plus two releases per pair.
		qBK := pipeline.AddQueue[gpuBKMsg](p, name("→bk"), len(need)+2*len(partPairs))
		qPairs := pipeline.AddQueue[gpuPair](p, name("bk→disp"), opts.QueueCap)
		statQueues = append(statQueues, qRead, qCopied, qBK, qPairs)

		spRead := stageSpan(name("read"))
		spDisp := stageSpan(name("disp"))

		// Stage 1: readers.
		pipeline.Connect(p, name("read"), opts.ReadThreads, qCoords, qRead,
			func(c tile.Coord, emit func(gpuTile) error) error {
				img, err := r.read(c, spRead)
				if err != nil && !fp.degrade {
					return err
				}
				return emit(gpuTile{coord: c, deviceTile: deviceTile{img: img}, failed: err})
			})

		// Stage 2: copier — one thread, async H2D on its own stream. The
		// float staging buffers are hoisted out of the per-tile loop: a
		// two-slot ring (two allocations per partition instead of one per
		// tile) lets copy k+1 stage while copy k is still reading its slot
		// — the copier only fences when it laps the ring, two copies back,
		// which by then has long resolved, preserving the copy/compute
		// overlap the trace tests pin. Copy errors still ride each tile's
		// own sticky event. Casualty markers pass through without
		// consuming a pool buffer.
		copierPix := [2][]float64{r.staging(), r.staging()}
		var copierPending [2]*gpu.Event
		copierSlot := 0
		pipeline.Connect(p, name("copier"), 1, qRead, qCopied,
			func(t gpuTile, emit func(gpuTile) error) error {
				if t.failed != nil {
					return emit(t)
				}
				buf, err := ops.pool.acquire(p.Aborted())
				if err != nil {
					return err
				}
				t.buf = buf
				slot := copierSlot
				copierSlot = 1 - copierSlot
				if ev := copierPending[slot]; ev != nil {
					_ = ev.Wait()
				}
				pix := copierPix[slot]
				r.stage(pix, t.img)
				t.ev = ops.upload(copyStream, t.buf, pix)
				copierPending[slot] = t.ev
				return emit(t)
			})

		// Stage 3: FFT — one thread launches transforms (cuFFT's Fermi
		// register pressure means one in flight; the device's
		// KernelSlots enforces serialization too). Not wired through
		// Connect: qBK must stay open for the displacement stage's
		// release messages, so nobody closes it — bookkeeping
		// terminates on message counts instead.
		p.Go(name("fft"), opts.FFTStreams, func(w int) error {
			for {
				t, ok := qCopied.Pop()
				if !ok {
					return nil
				}
				if t.failed == nil {
					t.ev = ops.forward(fftStreams[w], w, t.buf, t.ev)
				}
				if err := qBK.Push(gpuBKMsg{t: t}); err != nil {
					return err
				}
			}
		}, nil)

		// Stage 4: bookkeeping — dependency resolution and memory
		// recycling.
		p.Go(name("bk"), 1, func(int) error {
			bk := r.arrivals(pt)
			emitted, releases := 0, 0
			for emitted < len(partPairs) || releases < 2*len(partPairs) {
				msg, ok := qBK.Pop()
				if !ok {
					return fmt.Errorf("stitch: gpu%d bookkeeping starved (%d/%d pairs, %d/%d releases)",
						d, emitted, len(partPairs), releases, 2*len(partPairs))
				}
				if msg.isRelease {
					releases++
					if err := resident.release(msg.release); err != nil {
						return err
					}
					continue
				}
				if msg.t.failed == nil {
					resident.hold(msg.t.coord, msg.t.deviceTile)
				}
				ready, lost, err := bk.arrive(msg.t.coord, msg.t.failed)
				if err != nil {
					return err
				}
				emitted += len(ready) + len(lost)
				// Casualties never reach the displacement stage, so no
				// release messages will arrive for them; account both
				// sides here.
				releases += 2 * len(lost)
				for _, pr := range lost {
					if err := resident.releasePair(pr); err != nil {
						return err
					}
				}
				for _, pr := range ready {
					gp := gpuPair{pair: pr, a: resident.tile(pr.Neighbor()), b: resident.tile(pr.Coord)}
					if err := qPairs.Push(gp); err != nil {
						return err
					}
				}
			}
			qPairs.Close()
			return nil
		}, nil)

		// Stage 5: displacement — one thread, NCC + inverse FFT + max
		// reduction on the disp stream; only the scalar comes home.
		p.Go(name("disp"), 1, func(int) error {
			defer wgDisp.Done()
			for {
				gp, ok := qPairs.Pop()
				if !ok {
					return nil
				}
				// One fused launch per pair; a transient kernel fault is
				// absorbed by replaying it. A persistent fault —
				// including an upstream copy/FFT error carried by the
				// pair's sticky events — degrades the pair.
				var red gpu.Reduction
				dsp := spDisp.Child(obs.SpanDisp, pairAttr(gp.pair))
				err := fp.retry.Do(func() error {
					return ops.displace(dispStream, gp.a.buf, gp.b.buf, &red, gp.a.ev, gp.b.ev).Wait()
				})
				dsp.End()
				if err != nil {
					if err := r.settle(gp.pair, tile.Displacement{}, err); err != nil {
						return err
					}
				}
				// Release device transforms through bookkeeping (paper:
				// stage 5 posts to the stage-3→4 queue) whether or not
				// the pair produced a displacement.
				for _, c := range [2]tile.Coord{gp.pair.Coord, gp.pair.Neighbor()} {
					if err := qBK.Push(gpuBKMsg{isRelease: true, release: c}); err != nil {
						return err
					}
				}
				if err != nil {
					continue
				}
				if err := qCCF.Push(ccfTask{pair: gp.pair, aImg: gp.a.img, bImg: gp.b.img, peakIdx: red.Idx}); err != nil {
					return err
				}
			}
		}, nil)
	}

	// Close the shared CCF queue when every displacement stage is done.
	p.Go("ccf-closer", 1, func(int) error {
		wgDisp.Wait()
		qCCF.Close()
		return nil
	}, nil)

	// Stage 6: CCF workers, shared across GPUs.
	spCCF := stageSpan("ccf")
	p.Go("ccf", opts.CCFThreads, func(int) error {
		for {
			t, ok := qCCF.Pop()
			if !ok {
				return nil
			}
			csp := spCCF.Child(obs.SpanCCF, pairAttr(t.pair))
			d := r.resolvePeak(t.aImg, t.bImg, t.peakIdx)
			csp.End()
			if err := r.settle(t.pair, d, nil); err != nil {
				return err
			}
		}
	}, nil)

	err = p.Wait()
	for _, sp := range stageSpans {
		sp.End()
	}
	for d, ops := range devOps {
		peak += ops.pool.peakInUse()
		transforms += residents[d].transforms
	}
	cleanup()
	r.queues(statQueues...)
	return peak, transforms, err
}
