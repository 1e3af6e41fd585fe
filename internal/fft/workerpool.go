package fft

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the shared bounded worker pool behind the
// intra-transform parallel path (ROADMAP item 2: saturate cores during
// large transforms when pair-level parallelism runs dry). Pair-level
// workers and transform-level splits draw helper tokens from ONE pool,
// so a run with T pair threads on a C-core machine never oversubscribes:
// the stitch layer reserves T-1 tokens for its pair workers and the
// transforms' recursive splits absorb whatever budget remains.
//
// The split itself follows the gnark asyncFFT shape: halve the index
// range, hand one half to a helper goroutine if a token is free, recurse
// into the other, and stop splitting when the range is below a work
// threshold or the plan's slot budget is exhausted. A split that finds
// the pool empty simply runs serially — parallelism is an opportunistic
// upgrade, never a correctness dependency.

// WorkerPool is a bounded budget of helper goroutines. The zero of use
// is NewWorkerPool; a nil *WorkerPool behaves as an empty pool (TryGo
// always refuses). Safe for concurrent use.
type WorkerPool struct {
	id     uint64
	tokens chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

var poolIDs atomic.Uint64

// NewWorkerPool creates a pool with n helper tokens (n ≤ 0 yields an
// always-empty pool). Each token allows one concurrent helper goroutine;
// helpers are transient — spawned by TryGo, gone when their task
// returns — so an idle pool holds no goroutines (leaktest-clean).
func NewWorkerPool(n int) *WorkerPool {
	if n < 0 {
		n = 0
	}
	p := &WorkerPool{id: poolIDs.Add(1), tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

var (
	sharedPoolOnce sync.Once
	sharedPool     *WorkerPool
)

// SharedPool returns the process-wide default pool, sized GOMAXPROCS-1:
// one token per core beyond the caller's own. Plans built without an
// explicit Pool draw from it, which is what makes the pair-level and
// transform-level parallelism share one budget by default.
func SharedPool() *WorkerPool {
	sharedPoolOnce.Do(func() {
		sharedPool = NewWorkerPool(runtime.GOMAXPROCS(0) - 1)
	})
	return sharedPool
}

// ID returns a process-unique identity for the pool, used by free-list
// keys (pciam's aligner pools) so plans bound to different budgets never
// substitute for one another. The nil pool is identity 0.
func (p *WorkerPool) ID() uint64 {
	if p == nil {
		return 0
	}
	return p.id
}

// Cap reports the pool's total token count.
func (p *WorkerPool) Cap() int {
	if p == nil {
		return 0
	}
	return cap(p.tokens)
}

// Free reports how many tokens are unclaimed at this instant. Advisory:
// the split rule reads it at the start of every 2-D transform call, and
// a call that finds none — every token reserved by pair workers, or none
// to begin with — runs its passes inline, allocation-free.
func (p *WorkerPool) Free() int {
	if p == nil {
		return 0
	}
	return len(p.tokens)
}

// TryGo runs fn on a helper goroutine if a token is immediately
// available, returning true; otherwise it does nothing and returns
// false, and the caller runs the work inline. Never blocks.
func (p *WorkerPool) TryGo(fn func()) bool {
	if p == nil || p.closed.Load() {
		return false
	}
	select {
	case <-p.tokens:
	default:
		return false
	}
	p.wg.Add(1)
	go func() {
		defer func() {
			p.tokens <- struct{}{}
			p.wg.Done()
		}()
		fn()
	}()
	return true
}

// Reserve takes up to n tokens out of the pool without running anything,
// returning how many it got. The stitch layer reserves one token per
// pair-level worker beyond the first, so transform-level splits see only
// the genuinely idle remainder of the machine. Pair with Release.
func (p *WorkerPool) Reserve(n int) int {
	if p == nil {
		return 0
	}
	got := 0
	for got < n {
		select {
		case <-p.tokens:
			got++
		default:
			return got
		}
	}
	return got
}

// Release returns n previously Reserved tokens.
func (p *WorkerPool) Release(n int) {
	if p == nil {
		return
	}
	for i := 0; i < n; i++ {
		p.tokens <- struct{}{}
	}
}

// Close marks the pool refused-for-new-work and waits for every in-flight
// helper to finish. Outstanding Reserve tokens must be Released first.
// Idempotent; the shared pool is never closed.
func (p *WorkerPool) Close() {
	if p == nil {
		return
	}
	p.closed.Store(true)
	p.wg.Wait()
}

// splitMinWork is the minimum number of transform elements a split leg
// must keep for halving to continue — below it, goroutine handoff costs
// more than the FFT work it parallelizes. Mirrors gnark's
// fftParallelThreshold, scaled for 2-D row/column passes.
const splitMinWork = 1 << 12

// splitRange runs fn over [lo, hi) by recursive halving: each split
// hands the upper half (and the upper half of the plan-slot range
// [slotLo, slotHi)) to a pool helper and recurses into the lower half.
// Splitting stops when the span is at or below minSpan, the slot range
// is down to one (each leg needs its own per-slot plan and scratch), or
// TryGo finds no token — in every case the remaining range runs inline
// on the calling goroutine. Distinct legs get disjoint slot ranges, so
// fn(slot, lo, hi) may use plan slot `slot` without synchronization.
func splitRange(pool *WorkerPool, slotLo, slotHi, lo, hi, minSpan int, fn func(slot, lo, hi int) error) error {
	if slotHi-slotLo <= 1 || hi-lo <= minSpan {
		return fn(slotLo, lo, hi)
	}
	mid := lo + (hi-lo)/2
	slotMid := slotLo + (slotHi-slotLo)/2
	done := make(chan error, 1)
	spawned := pool.TryGo(func() {
		done <- splitRange(pool, slotMid, slotHi, mid, hi, minSpan, fn)
	})
	if !spawned {
		return fn(slotLo, lo, hi)
	}
	err := splitRange(pool, slotLo, slotMid, lo, mid, minSpan, fn)
	if herr := <-done; err == nil {
		err = herr
	}
	return err
}
