package stitch

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/gpu"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/pciam"
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
	coord  tile.Coord
	img    *tile.Gray16
	buf    *gpu.Buffer
	ev     *gpu.Event // last device op on buf
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
	a, b gpuTile
}

// ccfTask is the CPU-side tail of one pair: resolve the reduction peak
// with cross-correlation factors.
type ccfTask struct {
	pair       tile.Pair
	aImg, bImg *tile.Gray16
	peakIdx    int
}

// partition is one device's share of the grid: the row band
// [rowLo, rowHi) owns every pair whose tile sits in the band; tiles in
// row rowLo-1 are read and transformed redundantly to serve the band's
// top north pairs.
type partition struct {
	rowLo, rowHi int
	needLo       int // rowLo-1 clamped to 0
}

func makePartitions(rows, nDev int) []partition {
	if nDev > rows {
		nDev = rows
	}
	parts := make([]partition, 0, nDev)
	for d := 0; d < nDev; d++ {
		lo := rows * d / nDev
		hi := rows * (d + 1) / nDev
		needLo := lo - 1
		if needLo < 0 {
			needLo = 0
		}
		parts = append(parts, partition{rowLo: lo, rowHi: hi, needLo: needLo})
	}
	return parts
}

// pairs lists the pairs owned by the partition.
func (pt partition) pairs(g tile.Grid) []tile.Pair {
	var ps []tile.Pair
	for r := pt.rowLo; r < pt.rowHi; r++ {
		for c := 0; c < g.Cols; c++ {
			if c > 0 {
				ps = append(ps, tile.Pair{Coord: tile.Coord{Row: r, Col: c}, Dir: tile.West})
			}
			if r > 0 {
				ps = append(ps, tile.Pair{Coord: tile.Coord{Row: r, Col: c}, Dir: tile.North})
			}
		}
	}
	return ps
}

// needOrder returns the coordinates the partition must read and
// transform, in the given traversal order restricted to the band
// [needLo, rowHi).
func (pt partition) needOrder(g tile.Grid, tr Traversal) []tile.Coord {
	band := tile.Grid{Rows: pt.rowHi - pt.needLo, Cols: g.Cols, TileW: g.TileW, TileH: g.TileH,
		OverlapX: g.OverlapX, OverlapY: g.OverlapY}
	out := make([]tile.Coord, 0, band.NumTiles())
	for _, c := range tr.Order(band) {
		out = append(out, tile.Coord{Row: c.Row + pt.needLo, Col: c.Col})
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
// casualties, results and settlement are the engine's; the stages add
// the streams, the buffer pools and the device refcounts. It returns the
// summed peak pool occupancy and the transform count.
func (r *run) pipelineGPU() (peak, transforms int, err error) {
	g, opts, fp := r.g, r.opts, r.fp
	realFFT := opts.FFTVariant == VariantReal
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
	parts := makePartitions(g.Rows, len(opts.Devices))
	var wgDisp sync.WaitGroup
	wgDisp.Add(len(parts))

	pools := make([]*devicePool, len(parts))
	scratches := make([]*gpu.Buffer, 0, len(parts))
	streams := make([]*gpu.Stream, 0, 3*len(parts))
	cleanup := func() {
		for _, s := range streams {
			s.Close()
		}
		for _, b := range scratches {
			_ = b.Free()
		}
		for _, pool := range pools {
			if pool != nil {
				pool.drain()
			}
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
	var transformsTotal atomic.Int64
	statQueues := []statQueue{qCCF}

	for d := range parts {
		pt := parts[d]
		dev := opts.Devices[d]
		pool, err := newDevicePool(dev, g, opts.PoolTransforms, opts.FFTVariant, opts.Obs)
		if err != nil {
			return 0, 0, constructionFail(err)
		}
		pools[d] = pool
		// Displacement-stage NCC buffer (half spectrum in the real path).
		var scratch *gpu.Buffer
		if realFFT {
			scratch, err = dev.AllocSpectrum(g.TileH, g.TileW)
		} else {
			scratch, err = dev.Alloc(opts.FFTVariant.transformWords(g))
		}
		if err != nil {
			return 0, 0, constructionFail(err)
		}
		scratches = append(scratches, scratch)

		copyStream, err := dev.NewStream("copy")
		if err != nil {
			return 0, 0, constructionFail(err)
		}
		// One FFT-issuing thread per stream; the paper uses exactly one
		// (Fermi cuFFT serialization), Hyper-Q configurations use more.
		fftStreams := make([]*gpu.Stream, opts.FFTStreams)
		fwdPlans := make([]*fft.Plan2D, opts.FFTStreams)
		// Real plans carry internal scratch, so each stream that issues
		// them needs its own instance (the cuFFT one-plan-per-stream rule):
		// one per forward FFT stream plus one for the disp stream's
		// inverse.
		fwdRealPlans := make([]*fft.RealPlan2D, opts.FFTStreams)
		for w := range fftStreams {
			st, err := dev.NewStream(fmt.Sprintf("fft%d", w))
			if err != nil {
				return 0, 0, constructionFail(err)
			}
			streams = append(streams, st)
			fftStreams[w] = st
			if realFFT {
				plan, err := opts.Planner.RealPlan2DOpts(g.TileH, g.TileW, opts.fftReal2DOpts())
				if err != nil {
					return 0, 0, constructionFail(err)
				}
				fwdRealPlans[w] = plan
				continue
			}
			plan, err := opts.Planner.Plan2D(g.TileH, g.TileW, fft.Forward, opts.fftPlan2DOpts())
			if err != nil {
				return 0, 0, constructionFail(err)
			}
			fwdPlans[w] = plan
		}
		dispStream, err := dev.NewStream("disp")
		if err != nil {
			return 0, 0, constructionFail(err)
		}
		streams = append(streams, copyStream, dispStream)

		var invPlan *fft.Plan2D
		var invRealPlan *fft.RealPlan2D
		if realFFT {
			invRealPlan, err = opts.Planner.RealPlan2DOpts(g.TileH, g.TileW, opts.fftReal2DOpts())
		} else {
			invPlan, err = opts.Planner.Plan2D(g.TileH, g.TileW, fft.Inverse, opts.fftPlan2DOpts())
		}
		if err != nil {
			return 0, 0, constructionFail(err)
		}

		need := pt.needOrder(g, opts.Traversal)
		partPairs := pt.pairs(g)

		// Per-partition device refcounts: how many of THIS partition's
		// pairs use each tile's transform.
		devCounts := map[int]int{}
		for _, pr := range partPairs {
			devCounts[g.Index(pr.Coord)]++
			devCounts[g.Index(pr.Neighbor())]++
		}

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
				return emit(gpuTile{coord: c, img: img, failed: err})
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
		pixels := g.TileW * g.TileH
		copierPix := [2][]float64{make([]float64, pixels), make([]float64, pixels)}
		var copierPending [2]*gpu.Event
		copierSlot := 0
		pipeline.Connect(p, name("copier"), 1, qRead, qCopied,
			func(t gpuTile, emit func(gpuTile) error) error {
				if t.failed != nil {
					return emit(t)
				}
				buf, err := pool.acquireOr(p.Aborted())
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
				if err := t.img.ToFloat(pix); err != nil {
					return err
				}
				if realFFT {
					t.ev = copyStream.MemcpyH2DPackedReal(t.buf, pix)
				} else {
					t.ev = copyStream.MemcpyH2DReal(t.buf, pix)
				}
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
			st, plan := fftStreams[w], fwdPlans[w]
			for {
				t, ok := qCopied.Pop()
				if !ok {
					return nil
				}
				if t.failed != nil {
					if err := qBK.Push(gpuBKMsg{t: t}); err != nil {
						return err
					}
					continue
				}
				if realFFT {
					t.ev = st.RealFFT2D(fwdRealPlans[w], t.buf, t.ev)
				} else {
					t.ev = st.FFT2D(plan, t.buf, t.ev)
				}
				transformsTotal.Add(1)
				if err := qBK.Push(gpuBKMsg{t: t}); err != nil {
					return err
				}
			}
		}, nil)

		// Stage 4: bookkeeping — dependency resolution and memory
		// recycling.
		p.Go(name("bk"), 1, func(int) error {
			readyT := map[int]gpuTile{}
			fftSeen := make(map[int]bool, len(need)) // terminal: transformed or failed
			pairReady := map[tile.Pair]bool{}
			emitted, releases := 0, 0
			// decRef is the shared refcount decrement: failed tiles have
			// no entry in readyT (they never acquired a buffer), so the
			// pool release is guarded.
			decRef := func(i int) {
				devCounts[i]--
				if devCounts[i] == 0 {
					if t, ok := readyT[i]; ok {
						pool.release(t.buf)
						delete(readyT, i)
					}
				}
			}
			for emitted < len(partPairs) || releases < 2*len(partPairs) {
				msg, ok := qBK.Pop()
				if !ok {
					return fmt.Errorf("stitch: gpu%d bookkeeping starved (%d/%d pairs, %d/%d releases)",
						d, emitted, len(partPairs), releases, 2*len(partPairs))
				}
				if msg.isRelease {
					releases++
					decRef(g.Index(msg.release))
					continue
				}
				i := g.Index(msg.t.coord)
				fftSeen[i] = true
				if msg.t.failed != nil {
					r.lose(msg.t.coord, msg.t.failed)
				} else {
					readyT[i] = msg.t
				}
				for _, pr := range g.PairsOf(msg.t.coord) {
					if pr.Coord.Row < pt.rowLo || pr.Coord.Row >= pt.rowHi {
						continue // another partition owns it
					}
					bi, ai := g.Index(pr.Coord), g.Index(pr.Neighbor())
					if !fftSeen[bi] || !fftSeen[ai] || pairReady[pr] {
						continue
					}
					pairReady[pr] = true
					if cause := r.blocked(pr); cause != nil {
						// Degraded pairs never reach the displacement
						// stage, so no release messages will arrive for
						// them; account both sides here.
						if err := r.settle(pr, tile.Displacement{}, cause); err != nil {
							return err
						}
						decRef(bi)
						decRef(ai)
						releases += 2
						emitted++
						continue
					}
					if err := qPairs.Push(gpuPair{pair: pr, a: readyT[ai], b: readyT[bi]}); err != nil {
						return err
					}
					emitted++
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
				// The scratch buffer is rewritten from the top of the
				// sequence, so a transient kernel fault is absorbed by
				// replaying NCC → inverse FFT → reduction. A persistent
				// fault — including an upstream copy/FFT error carried by
				// the pair's sticky events — degrades the pair.
				var red gpu.Reduction
				dsp := spDisp.Child(obs.SpanDisp, pairAttr(gp.pair))
				err := fp.retry.Do(func() error {
					// In the real path the NCC covers the half spectrum
					// only (Hermitian symmetry supplies the mirror bins)
					// and the c2r inverse hands the reduction a packed
					// real surface. One fused launch per pair.
					if realFFT {
						return dispStream.FusedNCCInverseMaxReal(invRealPlan, gp.a.buf, gp.b.buf, &red, gp.a.ev, gp.b.ev).Wait()
					}
					return dispStream.FusedNCCInverseMax(invPlan, scratch, gp.a.buf, gp.b.buf, &red, gp.a.ev, gp.b.ev).Wait()
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
				if err := qBK.Push(gpuBKMsg{isRelease: true, release: gp.pair.Coord}); err != nil {
					return err
				}
				if err := qBK.Push(gpuBKMsg{isRelease: true, release: gp.pair.Neighbor()}); err != nil {
					return err
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
	pciamOpts := opts.pciamOptions()
	p.Go("ccf", opts.CCFThreads, func(int) error {
		for {
			t, ok := qCCF.Pop()
			if !ok {
				return nil
			}
			csp := spCCF.Child(obs.SpanCCF, pairAttr(t.pair))
			d := pciam.Resolve(t.aImg, t.bImg, t.peakIdx%g.TileW, t.peakIdx/g.TileW, pciamOpts)
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
	for _, pool := range pools {
		peak += pool.peakInUse()
	}
	cleanup()
	r.queues(statQueues...)
	return peak, int(transformsTotal.Load()), err
}
