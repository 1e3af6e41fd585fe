package stitch

import (
	"fmt"

	"hybridstitch/internal/obs"
	"hybridstitch/internal/pipeline"
	"hybridstitch/internal/tile"
)

// PipelinedCPU is the three-stage CPU pipeline of paper §IV.B: reader →
// fft/displacement → bookkeeping, built on the bounded monitor queues of
// internal/pipeline. The reader streams tiles in traversal order; the
// bookkeeping stage resolves data dependencies and advances ready work;
// a pool of worker threads executes transforms and displacements. All
// memory mechanisms of the GPU pipeline (reference counting, early
// recycling) are retained, which the paper calls out explicitly.
type PipelinedCPU struct{}

// Name implements Stitcher.
func (PipelinedCPU) Name() string { return "pipelined-cpu" }

// cpuWork is one task for the fft/displacement worker stage: a tile to
// transform, a tile casualty marker (degrade mode), or a ready pair.
type cpuWork struct {
	isPair bool
	coord  tile.Coord   // transform task
	img    *tile.Gray16 // transform task payload
	failed error        // tile casualty marker
	pair   tile.Pair    // pair task
}

// cpuEvent is a notification to the bookkeeping stage: a transform
// completion, or — in degrade mode — a persistent tile failure. Either
// way it is the tile's single terminal event.
type cpuEvent struct {
	coord  tile.Coord
	failed error
}

// Run implements Stitcher.
func (pc PipelinedCPU) Run(src Source, opts Options) (*Result, error) {
	if opts.Sockets > 1 {
		return runSockets(src, opts)
	}
	r, err := newRun(src, opts, pc.Name())
	if err != nil {
		return nil, err
	}
	return r.publish(r.end(r.pipelineCPU()))
}

// pipelineCPU runs the three stages over the run's grid. The stages
// only schedule: every read, transform, displacement and settlement is
// the engine's.
func (r *run) pipelineCPU() error {
	g, opts := r.g, r.opts
	// One span per stage, parents of that stage's operation spans: the
	// pipeline analogue of the paper's per-stage timeline rows.
	spRead := r.root.ChildOn(obs.TrackStagePrefix+obs.SpanRead, obs.SpanRead)
	defer spRead.End()
	spWork := r.root.ChildOn(obs.TrackStagePrefix+obs.SpanWork, obs.SpanWork)
	defer spWork.End()
	spBK := r.root.ChildOn(obs.TrackStagePrefix+obs.SpanBK, obs.SpanBK)
	defer spBK.End()
	defer opts.reservePairWorkers(opts.Threads)()

	p := pipeline.New()
	p.Observe(opts.Obs)
	r.note = p.Note
	qRead := pipeline.AddQueue[cpuWork](p, "read→work", opts.QueueCap)
	qWork := pipeline.AddQueue[cpuWork](p, "bk→work", opts.QueueCap)
	// Every transform completion produces exactly one event; capacity
	// NumTiles makes pushes non-blocking, which keeps the stage graph
	// trivially deadlock-free.
	qFFTDone := pipeline.AddQueue[cpuEvent](p, "work→bk", g.NumTiles())

	// Stage 1: readers stream tiles in traversal order.
	coords := pipeline.AddQueue[tile.Coord](p, "coords", g.NumTiles())
	for _, c := range opts.Traversal.Order(g) {
		if err := coords.Push(c); err != nil {
			return err
		}
	}
	coords.Close()
	pipeline.Connect(p, "read", opts.ReadThreads, coords, qRead,
		func(c tile.Coord, emit func(cpuWork) error) error {
			img, err := r.read(c, spRead)
			if err != nil && !r.fp.degrade {
				return err
			}
			// In degrade mode the casualty marker flows downstream so
			// bookkeeping still sees exactly one terminal event per tile.
			return emit(cpuWork{coord: c, img: img, failed: err})
		})

	// Stage 3 (bookkeeping): merge freshly read tiles into the work
	// queue, watch transform completions, and emit pair tasks when both
	// sides are ready.
	p.Go("bookkeeping", 1, func(int) error {
		bk := r.arrivals(tile.Band{Hi: g.Rows})
		settled := 0
		reads, ffts := 0, 0
		total := g.NumTiles()

		// onTerminal consumes a tile's single terminal event — transform
		// ready, or persistent failure in degrade mode: the engine settles
		// the pairs a lost tile blocks, the ready ones become pair work.
		onTerminal := func(ev cpuEvent) error {
			ffts++
			ready, lost, err := bk.arrive(ev.coord, ev.failed)
			if err != nil {
				return err
			}
			settled += len(ready) + len(lost)
			for _, pr := range ready {
				if err := qWork.Push(cpuWork{isPair: true, pair: pr}); err != nil {
					return err
				}
			}
			return nil
		}

		for settled < g.NumPairs() || ffts < total {
			// Prefer completions so pair work is released promptly.
			if ev, ok := qFFTDone.TryPop(); ok {
				if err := onTerminal(ev); err != nil {
					return err
				}
				continue
			}
			if reads < total {
				w, ok := qRead.Pop()
				if !ok {
					reads = total
					continue
				}
				reads++
				if w.failed != nil {
					// Read casualties never reach the workers; the marker
					// is the tile's terminal event.
					if err := onTerminal(cpuEvent{coord: w.coord, failed: w.failed}); err != nil {
						return err
					}
					continue
				}
				if err := qWork.Push(w); err != nil {
					return err
				}
				continue
			}
			// All reads forwarded: block on completions.
			ev, ok := qFFTDone.Pop()
			if !ok {
				return fmt.Errorf("stitch: bookkeeping starved with %d/%d pairs settled", settled, g.NumPairs())
			}
			if err := onTerminal(ev); err != nil {
				return err
			}
		}
		qWork.Close()
		return nil
	}, nil)

	// Stage 2: fft/displacement workers.
	p.Go("fft+disp", opts.Threads, func(int) error {
		al, err := acquireAligner(g, opts)
		if err != nil {
			return err
		}
		defer al.Close()
		for {
			w, ok := qWork.Pop()
			if !ok {
				return nil
			}
			if w.isPair {
				if err := r.displace(al, w.pair, spWork); err != nil {
					return err
				}
				continue
			}
			err := r.transform(al, w.coord, w.img, spWork)
			if err != nil && !r.fp.degrade {
				return err
			}
			if err := qFFTDone.Push(cpuEvent{coord: w.coord, failed: err}); err != nil {
				return err
			}
		}
	}, nil)

	err := p.Wait()
	r.queues(qRead, qWork, qFFTDone, coords)
	return err
}
