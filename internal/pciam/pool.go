package pciam

import (
	"sync"
	"sync/atomic"

	"hybridstitch/internal/fft"
)

// This file is the aligner pool behind the zero-allocation steady state.
// An aligner owns its FFT plans and every per-pair scratch buffer — the
// NCC/correlogram spectrum, the real correlation surface, pixel staging,
// and the peak-candidate slices — all sized at construction, so after one
// warm-up pair Displace performs no heap allocations (pinned by the
// AllocsPerRun tests in alloc_test.go). Whole aligners recycle: every
// New*Aligner constructor first consults a free list keyed by tile size
// and options, and Close returns the aligner to it, so the one aligner
// per worker per run reuses warm plans and memory instead of rebuilding
// them.
//
// Pool hits count into the process-wide reuse counter exported as
// ArenaReuse; the stitch layer publishes the per-run delta as the obs
// counter pciam.arena.reuse (this package deliberately does not import
// obs).

// pool is the free-list seam. Production uses sync.Pool. Tests swap
// newPool for a deterministic retain-everything list so retention stays
// observable under the race detector, where sync.Pool deliberately drops
// a fraction of Put items to shake out lifetime bugs.
type pool interface {
	Get() any
	Put(x any)
}

// newPool builds one free list. Replace it (and call resetPoolsForTest)
// to change the pooling discipline; tests own the only other
// implementation.
var newPool = func() pool { return syncPool{p: new(sync.Pool)} }

type syncPool struct{ p *sync.Pool }

func (s syncPool) Get() any  { return s.p.Get() }
func (s syncPool) Put(x any) { s.p.Put(x) }

// resetPoolsForTest empties the pool map so a swapped newPool takes
// effect for every key. Test-only; not safe concurrently with checkouts.
func resetPoolsForTest() {
	alignerPools.Range(func(k, _ any) bool { alignerPools.Delete(k); return true })
}

// alignerKey identifies one aligner free list: spectrum layout, tile and
// transform size, and every option that changes an aligner's observable
// behavior. Of the Planner only its transform-size answer is in the key;
// the planner itself is deliberately excluded — beyond the size it only
// steers FFT strategy selection, and all strategies produce the same
// displacements (the cross-variant equivalence tests pin this) — so runs
// that build a fresh estimate-mode planner per run still share aligners.
type alignerKey struct {
	real      bool
	w, h      int
	pw, ph    int
	nPeaks    int
	fftExec   fft.ExecStrategy
	fftPoolID uint64
}

var (
	alignerPools    sync.Map // alignerKey → pool
	arenaReuseCount atomic.Int64
)

// ArenaReuse returns the process-wide count of aligners (plans and
// scratch included) served from the pool rather than constructed.
func ArenaReuse() int64 { return arenaReuseCount.Load() }

// makeAlignerKey builds the key for opts, which must already carry its
// defaults.
func makeAlignerKey(real bool, w, h, pw, ph int, opts Options) alignerKey {
	pool := opts.FFTPool
	if pool == nil {
		pool = fft.SharedPool()
	}
	return alignerKey{
		real: real, w: w, h: h, pw: pw, ph: ph,
		nPeaks:    opts.NPeaks,
		fftExec:   opts.FFTExec,
		fftPoolID: pool.ID(),
	}
}

// alignerPool returns the free list for key, creating it on first use.
func alignerPool(key alignerKey) pool {
	if pv, ok := alignerPools.Load(key); ok {
		return pv.(pool)
	}
	pv, _ := alignerPools.LoadOrStore(key, newPool())
	return pv.(pool)
}

// checkout returns a pooled aligner for key, or nil on a miss.
func checkout(key alignerKey) any {
	v := alignerPool(key).Get()
	if v != nil {
		arenaReuseCount.Add(1)
	}
	return v
}
