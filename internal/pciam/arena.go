package pciam

import (
	"sync"
	"sync/atomic"

	"hybridstitch/internal/fft"
)

// This file implements the per-aligner scratch arenas and the aligner
// pools behind the zero-allocation steady state: after one warm-up pair,
// Displace on any CPU aligner performs no heap allocations (pinned by
// the AllocsPerRun tests in alloc_test.go). An arena owns every
// per-pair scratch buffer — the NCC/correlogram spectrum, the real
// correlation surface, pixel staging, and the peak-candidate slices —
// and is checked out of a sync.Pool keyed by tile dimensions, so
// repeated aligner construction (one aligner per worker per run) reuses
// warm memory instead of re-allocating it.
//
// Two levels recycle:
//
//   - arenas: checked out in New*Aligner, returned by (*Aligner).Close
//     (and its variant counterparts);
//   - whole aligners (plans included): Get*Aligner/Put*Aligner, which
//     the stitch layer uses per worker.
//
// Both levels count their pool hits into the process-wide reuse counter
// exported as ArenaReuse; the stitch layer publishes the per-run delta
// as the obs counter pciam.arena.reuse (this package deliberately does
// not import obs).

// pool is the free-list seam behind both recycling levels. Production
// uses sync.Pool. Tests swap newPool for a deterministic
// retain-everything list so retention stays observable under the race
// detector, where sync.Pool deliberately drops a fraction of Put items
// to shake out lifetime bugs.
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

// resetPoolsForTest empties both pool maps so a swapped newPool takes
// effect for every key. Test-only; not safe concurrently with checkouts.
func resetPoolsForTest() {
	arenaPools.Range(func(k, _ any) bool { arenaPools.Delete(k); return true })
	alignerPools.Range(func(k, _ any) bool { alignerPools.Delete(k); return true })
}

// arenaKey identifies one arena free list: the aligner kind plus the
// tile dimensions that size every buffer.
type arenaKey struct {
	kind string // "complex", "padded", or "real"
	w, h int
}

var (
	arenaPools      sync.Map // arenaKey → pool
	arenaReuseCount atomic.Int64
)

// ArenaReuse returns the process-wide count of scratch checkouts served
// from a pool (arena or whole-aligner) rather than fresh allocation.
func ArenaReuse() int64 { return arenaReuseCount.Load() }

// arena is the per-aligner scratch block. work is the complex/padded
// aligners' full-spectrum scratch (the real aligner stages its half
// spectrum inside the plan and has none); corr and pix are the real
// aligner's correlation surface and pixel staging; peaks, cands, and cx
// back the peak search.
// cands and cx start nil and grow on first NPeaks>1 use; pix2 starts nil
// and grows on the real aligner's first batched TransformPair (staging
// the second tile of the pair).
type arena struct {
	work  []complex128
	corr  []float64
	pix   []float64
	pix2  []float64
	peaks []Peak
	cands []peakCand
	cx    []complex128
}

// checkoutArena gets an arena for the given aligner kind and tile size,
// reusing a pooled one when available. cwords sizes work; fwords, when
// positive, sizes corr and pix.
func checkoutArena(kind string, w, h, cwords, fwords int) *arena {
	pv, _ := arenaPools.LoadOrStore(arenaKey{kind: kind, w: w, h: h}, newPool())
	if v := pv.(pool).Get(); v != nil {
		arenaReuseCount.Add(1)
		return v.(*arena)
	}
	ar := &arena{work: make([]complex128, cwords), peaks: make([]Peak, 0, 4)}
	if fwords > 0 {
		ar.corr = make([]float64, fwords)
		ar.pix = make([]float64, fwords)
	}
	return ar
}

// releaseArena returns an arena to its free list.
func releaseArena(kind string, w, h int, ar *arena) {
	if ar == nil {
		return
	}
	pv, _ := arenaPools.LoadOrStore(arenaKey{kind: kind, w: w, h: h}, newPool())
	pv.(pool).Put(ar)
}

// alignerKey identifies one aligner free list: kind, tile size, and
// every option that changes an aligner's observable behavior. The
// Planner is deliberately excluded — it only steers FFT strategy
// selection, and all strategies produce the same displacements (the
// cross-variant equivalence tests pin this) — so runs that build a
// fresh estimate-mode planner per run still share aligners.
type alignerKey struct {
	kind         string
	w, h         int
	nPeaks       int
	positiveOnly bool
	minOverlapPx int
	window       bool
	fftExec      fft.ExecStrategy
	fftPoolID    uint64
}

var alignerPools sync.Map // alignerKey → pool

func makeAlignerKey(kind string, w, h int, opts Options) alignerKey {
	opts = opts.withDefaults()
	pool := opts.FFTPool
	if pool == nil {
		pool = fft.SharedPool()
	}
	return alignerKey{
		kind: kind, w: w, h: h,
		nPeaks:       opts.NPeaks,
		positiveOnly: opts.PositiveOnly,
		minOverlapPx: opts.MinOverlapPx,
		window:       opts.Window,
		fftExec:      opts.FFTExec,
		fftPoolID:    pool.ID(),
	}
}

func alignerPool(key alignerKey) pool {
	pv, _ := alignerPools.LoadOrStore(key, newPool())
	return pv.(pool)
}

// GetAligner checks out a pooled complex aligner for w×h tiles,
// constructing one through NewAligner on a miss. Return it with
// PutAligner when the worker is done; do not Close an aligner that will
// be Put back.
func GetAligner(w, h int, opts Options) (*Aligner, error) {
	if v := alignerPool(makeAlignerKey("complex", w, h, opts)).Get(); v != nil {
		arenaReuseCount.Add(1)
		return v.(*Aligner), nil
	}
	return NewAligner(w, h, opts)
}

// PutAligner returns a complex aligner for reuse by a later GetAligner
// with the same dimensions and options.
func PutAligner(al *Aligner) {
	if al == nil || al.ar == nil {
		return
	}
	alignerPool(makeAlignerKey("complex", al.w, al.h, al.opts)).Put(al)
}

// GetPaddedAligner is GetAligner for the padded variant.
func GetPaddedAligner(w, h int, opts Options) (*PaddedAligner, error) {
	if v := alignerPool(makeAlignerKey("padded", w, h, opts)).Get(); v != nil {
		arenaReuseCount.Add(1)
		return v.(*PaddedAligner), nil
	}
	return NewPaddedAligner(w, h, opts)
}

// PutPaddedAligner returns a padded aligner for reuse.
func PutPaddedAligner(al *PaddedAligner) {
	if al == nil || al.ar == nil {
		return
	}
	alignerPool(makeAlignerKey("padded", al.w, al.h, al.opts)).Put(al)
}

// GetRealAligner is GetAligner for the real-to-complex variant.
func GetRealAligner(w, h int, opts Options) (*RealAligner, error) {
	if v := alignerPool(makeAlignerKey("real", w, h, opts)).Get(); v != nil {
		arenaReuseCount.Add(1)
		return v.(*RealAligner), nil
	}
	return NewRealAligner(w, h, opts)
}

// PutRealAligner returns a real aligner for reuse.
func PutRealAligner(al *RealAligner) {
	if al == nil || al.ar == nil {
		return
	}
	alignerPool(makeAlignerKey("real", al.w, al.h, al.opts)).Put(al)
}
