package fft

import "sync/atomic"

// The split rule. Whether a 2-D transform's row and column passes fork
// across the worker pool is decided on every call, by rule, not by a
// stopwatch: a call splits when its frame holds at least splitFloor
// elements and the plan's pool has a free token at that instant, and
// runs the inline loop otherwise. This is the shape of gnark's asyncFFT
// (`serial := (splits<<1) > numCpus || m <= fftParallelThreshold`).
// Splitting only repartitions the loops — every 1-D transform sees the
// same data in the same order — so the branch a call takes can never
// change a bit (pinned by the exec matrix tests against the
// row-then-column oracle). Each call counts the branch it took in
// package atomics that the stitch layer publishes as the obs counters
// fft.autotune.{serial,split} (this package deliberately does not
// import obs).

// ExecStrategy selects how a 2-D plan's row and column passes execute.
type ExecStrategy int

const (
	// ExecAuto, the zero value, applies the split rule on every call.
	ExecAuto ExecStrategy = iota
	// ExecSerial never forks: single-goroutine passes, the
	// zero-allocation path.
	ExecSerial
)

// splitFloor is the smallest frame, in h·w elements, whose passes may
// fork: 256×384, the smallest measured frame at which a split with one
// free helper beat the inline passes in at least 9 of 10 alternated
// pairs in both spectrum layouts. Below it the goroutine handoffs eat
// most of what the helper saves (EXPERIMENTS.md "Split by rule").
const splitFloor = 256 * 384

var (
	serialCalls atomic.Int64
	splitCalls  atomic.Int64
)

// AutotuneCounts returns the process-wide counts of 2-D transform calls
// by the branch the split rule took, exported for the stitch layer's obs
// bridge.
func AutotuneCounts() (serial, split int64) {
	return serialCalls.Load(), splitCalls.Load()
}

// passExec executes the passes of one 2-D plan. It holds the pool, the
// number of per-slot 1-D plan sets the plan built, and the branch the
// current call took; the column pass through the blocked transpose,
// which both plans share, lives here with its plan-held scratch. Not
// safe for concurrent use, like the plans that own it.
type passExec struct {
	pool   *WorkerPool
	nslots int  // 1 unless the plan's calls may split
	split  bool // the current call's branch, set by begin

	// The column pass: length-h transforms down every column of an
	// h×cols matrix, run over the cols×h transpose in tbuf.
	h, cols           int
	tbuf              []complex128
	colSpan, backSpan int // split-leg minimum spans, precomputed

	// Pending column-pass operands. The slab bodies are bound once at
	// construction and read their per-call operands from these fields;
	// literals built per call would heap-allocate a closure per pass
	// (the split branch makes them escape).
	opData  []complex128
	opPlans []*Plan
	fnSlab  func(slot, lo, hi int) error
	fnBack  func(slot, lo, hi int) error
}

// maxSplitSlots caps how many per-slot plan sets a split-capable plan
// builds. Eight covers any machine this system targets without the plan
// footprint growing with GOMAXPROCS.
const maxSplitSlots = 8

// newPassExec builds the executor for an h×cols column pass of a plan
// whose frame holds frame elements. The plan builds one set of per-slot
// 1-D plans per slot: min(Cap()+1, maxSplitSlots) when its calls may
// split, one otherwise. Nothing is timed or resolved here; the rule
// runs on each call.
func newPassExec(exec ExecStrategy, pool *WorkerPool, frame, h, cols int) *passExec {
	if pool == nil {
		pool = SharedPool()
	}
	e := &passExec{pool: pool, nslots: 1, h: h, cols: cols,
		tbuf:     make([]complex128, h*cols),
		colSpan:  spanAtLeast1(splitMinWork / h),
		backSpan: spanAtLeast1(splitMinWork / cols)}
	if exec != ExecSerial && frame >= splitFloor {
		e.nslots = min(pool.Cap()+1, maxSplitSlots)
	}
	e.fnSlab = func(slot, lo, hi int) error {
		transposeRange(e.tbuf, e.opData, e.h, e.cols, lo, hi)
		for c := lo; c < hi; c++ {
			if err := e.opPlans[slot].Execute(e.tbuf[c*e.h : (c+1)*e.h]); err != nil {
				return err
			}
		}
		return nil
	}
	e.fnBack = func(_, lo, hi int) error {
		transposeRange(e.opData, e.tbuf, e.cols, e.h, lo, hi)
		return nil
	}
	return e
}

func spanAtLeast1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// begin applies the split rule to the call about to run and counts the
// branch it takes.
func (e *passExec) begin() {
	e.split = e.nslots > 1 && e.pool.Free() > 0
	if e.split {
		splitCalls.Add(1)
	} else {
		serialCalls.Add(1)
	}
}

// shard runs fn(slot, index) for every index in [0, n): by recursive
// range splitting over the pool when the call splits (minSpan is the
// smallest index range a split leg may keep), and as a plain loop
// otherwise.
func (e *passExec) shard(n, minSpan int, fn func(slot, index int) error) error {
	if e.split {
		return splitRange(e.pool, 0, e.nslots, 0, n, minSpan, func(slot, lo, hi int) error {
			return shardLoop(slot, lo, hi, fn)
		})
	}
	return shardLoop(0, 0, n, fn)
}

// shardLoop is the inline branch: the steady state of a call that does
// not split creates no closure and performs no allocation.
//
//stitchlint:hotpath
func shardLoop(slot, lo, hi int, fn func(slot, index int) error) error {
	for i := lo; i < hi; i++ {
		if err := fn(slot, i); err != nil {
			return err
		}
	}
	return nil
}

// slab runs fn(slot, lo, hi) over contiguous shares of [0, n) — the slab
// counterpart of shard, used by the column pass so each leg transposes
// and transforms a disjoint range.
func (e *passExec) slab(n, minSpan int, fn func(slot, lo, hi int) error) error {
	if e.split {
		return splitRange(e.pool, 0, e.nslots, 0, n, minSpan, fn)
	}
	return fn(0, 0, n)
}

// columns runs plans[slot] down every column of the h×cols matrix data
// in place: each slab of columns is transposed into tbuf and transformed
// over contiguous memory, then the matrix is transposed back.
//
//stitchlint:hotpath
func (e *passExec) columns(data []complex128, plans []*Plan) error {
	e.opData, e.opPlans = data, plans
	err := e.slab(e.cols, e.colSpan, e.fnSlab)
	if err == nil {
		err = e.slab(e.h, e.backSpan, e.fnBack)
	}
	e.opData, e.opPlans = nil, nil
	return err
}
