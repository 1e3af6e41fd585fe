package stitch

import (
	"fmt"
	"sync"
	"time"

	"hybridstitch/internal/obs"
	"hybridstitch/internal/pciam"
	"hybridstitch/internal/tile"
)

// run is the per-run pair engine all six implementations schedule. It
// owns, once, everything the paper says they share — the "same
// mathematical operators" and their bookkeeping: the fault plan, the
// reference-counted host cache, the casualty set, the result and its
// lock, and the steps read → transform → displace → settle. A variant
// file holds only what distinguishes that variant: the order and the
// goroutines in which the steps are called.
//
// Two invariants hold whatever the scheduler does. A tile is read and
// transformed at most once per run, and a persistent failure is sticky:
// no later pair re-attempts the tile, so an Nth-hit fault rule cannot
// heal it mid-run. Every pair is settled exactly once, and settling
// releases both tiles' references whether the pair produced a
// displacement, was degraded, or aborted the run.
type run struct {
	src   Source
	g     tile.Grid
	opts  Options // defaults applied
	fp    faultPlan
	cache *hostCache
	ds    *degradedSet
	root  *obs.Span
	base  runBaselines
	start time.Time

	// pw×ph is the size every tile is transformed at, host or device:
	// fft.TransformSize's frame for g's tiles.
	pw, ph int

	// once guards tile(): the first caller to need a tile loads it, the
	// rest wait on it.
	once []sync.Once
	// note, when set, hears every casualty as it is recorded; the
	// pipelined variants point it at their Pipeline.Note.
	note func(error)

	mu  sync.Mutex // guards res
	res *Result
}

// newRun validates the grid, applies option defaults and opens the run's
// root span. The span opens before any aligner is acquired, so the
// baseline snapshot of the process-wide counters (transpose blocks,
// arena reuse, split-rule calls) predates every transform of the run.
func newRun(src Source, opts Options, impl string) (*run, error) {
	g := src.Grid()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(g)
	pw, ph := transformSize(g)
	r := &run{
		src: src, g: g, opts: opts, pw: pw, ph: ph,
		fp:    opts.plan(),
		cache: newHostCache(g, opts.Governor, transformWords(pw, ph)*16),
		ds:    newDegradedSet(g),
		once:  make([]sync.Once, g.NumTiles()),
		res:   newResult(g),
	}
	r.res.TransformW, r.res.TransformH = pw, ph
	r.root, r.base = startRun(opts, impl, g, pw, ph)
	r.start = time.Now()
	return r, nil
}

// newGPURun is newRun behind the preconditions both GPU variants share.
func newGPURun(src Source, opts Options, impl string) (*run, error) {
	switch {
	case len(opts.Devices) == 0:
		return nil, fmt.Errorf("stitch: %s requires a GPU device", impl)
	case opts.NPeaks > 1:
		return nil, fmt.Errorf("stitch: GPU implementations support NPeaks=1 only (max-reduction kernel)")
	}
	return newRun(src, opts, impl)
}

// workers runs body on n goroutines, each holding its own pooled
// aligner, charges them to the shared transform worker budget, and
// returns the lowest-numbered worker's error once all have exited.
func (r *run) workers(n int, body func(w int, al *pciam.RealAligner) error) error {
	defer r.opts.reservePairWorkers(n)()
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func(w int) {
			defer wg.Done()
			al, err := acquireAligner(r.g, r.opts)
			if err != nil {
				errs[w] = err
				return
			}
			defer al.Close()
			errs[w] = body(w, al)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// walk runs one worker per part, each taking its pairs in order: the
// sequential walk with one part, the SPMD decomposition with several.
func (r *run) walk(parts [][]tile.Pair) error {
	return r.workers(len(parts), func(w int, al *pciam.RealAligner) error {
		for _, p := range parts[w] {
			if err := r.pair(al, p); err != nil {
				return err
			}
		}
		return nil
	})
}

// read fetches tile c through the "stitch.read" error point.
func (r *run) read(c tile.Coord, parent *obs.Span) (*tile.Gray16, error) {
	return r.fp.readTile(r.src, c, parent)
}

// transform computes tile c's forward FFT through the "stitch.fft" error
// point and makes the tile resident.
func (r *run) transform(al *pciam.RealAligner, c tile.Coord, img *tile.Gray16, parent *obs.Span) error {
	r.cache.touch()
	f, err := r.fp.transform(al, c, img, parent)
	if err != nil {
		return err
	}
	return r.cache.put(r.g.Index(c), img, f)
}

// load is the host side's way of making tile c resident: read →
// transform → cache.
func (r *run) load(al *pciam.RealAligner, c tile.Coord, parent *obs.Span) error {
	img, err := r.read(c, parent)
	if err == nil {
		err = r.transform(al, c, img, parent)
	}
	return err
}

// tile makes c resident through load exactly once per run, whichever
// worker asks first, and reports the tile's sticky failure to every
// caller.
func (r *run) tile(c tile.Coord, parent *obs.Span, load func(tile.Coord, *obs.Span) error) error {
	r.once[r.g.Index(c)].Do(func() {
		if err := load(c, parent); err != nil {
			r.lose(c, err)
		}
	})
	return r.ds.tileBad(c)
}

// lose records tile c as persistently failed (the first error wins).
func (r *run) lose(c tile.Coord, err error) {
	r.ds.tileFailed(c, err)
	if r.note != nil {
		r.note(err)
	}
}

// blocked returns the casualty cause of a pair one of whose tiles was
// lost, or nil when both are sound.
func (r *run) blocked(p tile.Pair) error {
	for _, c := range [2]tile.Coord{p.Coord, p.Neighbor()} {
		if err := r.ds.tileBad(c); err != nil {
			return pairCause(p, c, err)
		}
	}
	return nil
}

// settle closes pair p, exactly once: a nil cause records displacement
// d; otherwise the pair becomes a casualty in degrade mode and the run's
// error in abort mode. In every case both tiles' references are
// released, so the surviving side is still evicted on schedule.
func (r *run) settle(p tile.Pair, d tile.Displacement, cause error) error {
	if err := r.cache.releasePair(p); err != nil {
		return err
	}
	switch {
	case cause == nil:
		r.mu.Lock()
		r.res.setPair(p, d)
		r.mu.Unlock()
	case !r.fp.degrade:
		return cause
	default:
		r.ds.pairFailed(p, cause)
		if r.note != nil {
			r.note(cause)
		}
	}
	return nil
}

// displace aligns pair p from its two resident tiles through the
// "pciam.ncc" error point and settles it.
func (r *run) displace(al *pciam.RealAligner, p tile.Pair, parent *obs.Span) error {
	bImg, bF := r.cache.get(r.g.Index(p.Coord))
	aImg, aF := r.cache.get(r.g.Index(p.Neighbor()))
	if aImg == nil || bImg == nil {
		return fmt.Errorf("stitch: pair %v ready but tiles evicted (refcount bug)", p)
	}
	r.cache.touch()
	d, err := r.fp.displace(al, p, aImg, bImg, aF, bF, parent)
	return r.settle(p, d, err)
}

// pairWith is the whole per-pair sequence under one "pair" span: both
// tiles made resident by load, then displace, which settles the pair; a
// lost tile settles the pair as its casualty. Every path settles the
// pair exactly once.
func (r *run) pairWith(p tile.Pair, load func(tile.Coord, *obs.Span) error, displace func(*obs.Span) error) error {
	psp := r.root.Child(obs.SpanPair, pairAttr(p))
	defer psp.End()
	for _, c := range [2]tile.Coord{p.Coord, p.Neighbor()} {
		if err := r.tile(c, psp, load); err != nil {
			if r.fp.degrade {
				err = pairCause(p, c, err)
			}
			return r.settle(p, tile.Displacement{}, err)
		}
	}
	return displace(psp)
}

// pair is pairWith on the host: tiles loaded into the host cache and
// displaced by the worker's aligner.
func (r *run) pair(al *pciam.RealAligner, p tile.Pair) error {
	return r.pairWith(p,
		func(c tile.Coord, psp *obs.Span) error { return r.load(al, c, psp) },
		func(psp *obs.Span) error { return r.displace(al, p, psp) })
}

// arrivals is the dependency state of one band's bookkeeping stage:
// which of the tiles it was promised have reached their terminal event.
// The stage's one goroutine owns it.
type arrivals struct {
	r        *run
	pt       tile.Band
	terminal []bool
}

// arrivals starts the bookkeeping of the pairs band pt owns.
func (r *run) arrivals(pt tile.Band) *arrivals {
	return &arrivals{r: r, pt: pt, terminal: make([]bool, r.g.NumTiles())}
}

// arrive consumes tile c's terminal event in this band — its
// transform is ready, or (failed non-nil, degrade mode) it is lost, which
// is recorded. Every owned pair whose second tile this was is decided
// here, exactly once: with both tiles sound it is returned in ready for
// the scheduler to displace; with either lost it is settled as that
// tile's casualty and returned in lost, so a scheduler holding other
// references for the pair can drop them.
func (a *arrivals) arrive(c tile.Coord, failed error) (ready, lost []tile.Pair, err error) {
	r, g := a.r, a.r.g
	a.terminal[g.Index(c)] = true
	if failed != nil {
		r.lose(c, failed)
	}
	for _, p := range g.PairsOf(c) {
		if !a.pt.Owns(p) || !a.terminal[g.Index(p.Coord)] || !a.terminal[g.Index(p.Neighbor())] {
			continue
		}
		cause := r.blocked(p)
		if cause == nil {
			ready = append(ready, p)
			continue
		}
		if err := r.settle(p, tile.Displacement{}, cause); err != nil {
			return nil, nil, err
		}
		lost = append(lost, p)
	}
	return ready, lost, nil
}

// statQueue is the part of a pipeline queue the result reports.
type statQueue interface {
	Name() string
	Cap() int
	Stats() (pushes int64, maxDepth int)
}

// queues records the inter-stage queues' backpressure picture.
func (r *run) queues(qs ...statQueue) {
	for _, q := range qs {
		pushes, maxDepth := q.Stats()
		r.res.QueueStats = append(r.res.QueueStats, QueueStat{Name: q.Name(), Cap: q.Cap(), Pushes: pushes, MaxDepth: maxDepth})
	}
}

// end closes the run given its scheduler's outcome. On success the
// result carries the sorted casualty report, the wall time, and the host
// cache's transform statistics; nothing is published yet, so a caller
// merging several runs (runSockets) can publish once.
func (r *run) end(err error) (*Result, error) {
	r.root.End()
	if err != nil {
		return nil, err
	}
	r.ds.finalize(r.res)
	r.res.Elapsed = time.Since(r.start)
	_, r.res.PeakTransformsLive, r.res.TransformsComputed = r.cache.stats()
	return r.res, nil
}

// endWith is end for schedulers whose transforms live outside the host
// cache (device pools, band sub-runs, Fiji's transients): they report
// the peak residency and transform count themselves.
func (r *run) endWith(peak, transforms int, err error) (*Result, error) {
	res, err := r.end(err)
	if err == nil {
		res.PeakTransformsLive, res.TransformsComputed = peak, transforms
	}
	return res, err
}

// publish emits a finished run's result-level metrics and passes the
// outcome through; every exported Run returns through it.
func (r *run) publish(res *Result, err error) (*Result, error) {
	if err == nil {
		publishRun(r.opts, r.base, res)
	}
	return res, err
}
