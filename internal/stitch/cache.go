package stitch

import (
	"fmt"
	"sync"

	"hybridstitch/internal/gpu"
	"hybridstitch/internal/memgov"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/tile"
)

// refCounter tracks, per tile, how many pairs still need it. When a
// tile's count reaches zero its resources are released — the mechanism
// that keeps the paper's system inside RAM and GPU memory limits.
type refCounter struct {
	mu     sync.Mutex
	counts []int
}

// newRefCounter initializes each tile's count to the number of the given
// pairs it participates in: over the whole grid, corner 2, edge 3,
// interior 4.
func newRefCounter(g tile.Grid, pairs []tile.Pair) *refCounter {
	rc := &refCounter{counts: make([]int, g.NumTiles())}
	for _, p := range pairs {
		rc.counts[g.Index(p.Coord)]++
		rc.counts[g.Index(p.Neighbor())]++
	}
	return rc
}

// release decrements tile i's count and reports whether it hit zero.
func (rc *refCounter) release(i int) (free bool, err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.counts[i] <= 0 {
		return false, fmt.Errorf("stitch: refcount underflow on tile %d", i)
	}
	rc.counts[i]--
	return rc.counts[i] == 0, nil
}

// remaining returns tile i's current count.
func (rc *refCounter) remaining(i int) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.counts[i]
}

// cacheEntry is one host-resident tile: its pixels (needed by the CCF
// stage) and its forward transform.
type cacheEntry struct {
	img *tile.Gray16
	f   []complex128
}

// hostCache stores resident tiles with reference counting, live/peak
// tracking, and optional memory-governor accounting of transform bytes.
// Safe for concurrent use.
type hostCache struct {
	g tile.Grid
	// bytes is one transform's footprint, 16 per spectrum word of the
	// run's layout and transform size (the paper: "each transform takes
	// up nearly 22 MB" for 1392×1040 complex transforms; the r2c half
	// spectrum is roughly half that).
	bytes int64
	rc    *refCounter
	gov   *memgov.Governor

	mu       sync.Mutex
	data     map[int]cacheEntry
	allocs   map[int]*memgov.Allocation
	live     int
	peak     int
	computed int
}

func newHostCache(g tile.Grid, gov *memgov.Governor, transformBytes int64) *hostCache {
	return &hostCache{
		g:      g,
		bytes:  transformBytes,
		rc:     newRefCounter(g, g.Pairs()),
		gov:    gov,
		data:   make(map[int]cacheEntry),
		allocs: make(map[int]*memgov.Allocation),
	}
}

// put stores tile i with its transform, charging the governor for the
// transform's bytes.
func (c *hostCache) put(i int, img *tile.Gray16, f []complex128) error {
	var alloc *memgov.Allocation
	if c.gov != nil {
		a, err := c.gov.Alloc(c.bytes)
		if err != nil {
			return err
		}
		alloc = a
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.data[i]; dup {
		if alloc != nil {
			_ = alloc.Free()
		}
		return fmt.Errorf("stitch: tile %d stored twice", i)
	}
	c.data[i] = cacheEntry{img: img, f: f}
	if alloc != nil {
		c.allocs[i] = alloc
	}
	c.computed++
	c.live++
	if c.live > c.peak {
		c.peak = c.live
	}
	return nil
}

// get returns tile i's entry; img is nil if the tile is not resident.
func (c *hostCache) get(i int) (*tile.Gray16, []complex128) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.data[i]
	return e.img, e.f
}

// releasePair decrements both tiles of a completed pair, evicting tiles
// whose counts reach zero.
func (c *hostCache) releasePair(p tile.Pair) error {
	for _, coord := range []tile.Coord{p.Coord, p.Neighbor()} {
		i := c.g.Index(coord)
		free, err := c.rc.release(i)
		if err != nil {
			return err
		}
		if !free {
			continue
		}
		c.mu.Lock()
		var alloc *memgov.Allocation
		if _, ok := c.data[i]; ok {
			delete(c.data, i)
			c.live--
			alloc = c.allocs[i]
			delete(c.allocs, i)
		}
		c.mu.Unlock()
		if alloc != nil {
			if err := alloc.Free(); err != nil {
				return err
			}
		}
	}
	return nil
}

// stats reports live entries, the peak, and the number of transforms
// computed.
func (c *hostCache) stats() (live, peak, computed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live, c.peak, c.computed
}

// touch charges the governor for streaming one transform's bytes through
// the CPU (an FFT execution or an NCC pass).
func (c *hostCache) touch() {
	if c.gov != nil {
		c.gov.Touch(c.bytes)
	}
}

// devicePool is the paper's per-GPU transform buffer pool: a fixed number
// of transform-sized device buffers allocated once at initialization
// ("the system allocates GPU memory only once to avoid any further
// allocations which would force a global synchronization"). acquire
// blocks until a buffer is recycled; the pool size therefore bounds the
// number of tiles in flight. The paper requires the pool to exceed the
// grid's smallest dimension so the chained-diagonal traversal can start
// recycling before the pool drains; newDevicePool enforces that.
type devicePool struct {
	ch   chan *gpu.Buffer
	bufs []*gpu.Buffer

	// Metrics are nil-safe no-ops when no recorder is attached. The pool
	// is the main blocking-wait site of the GPU variants, so acquires vs
	// waits exposes how often the paper's fixed-pool constraint actually
	// throttles the pipeline.
	acquires *obs.Counter
	waits    *obs.Counter
	inUse    *obs.Gauge

	mu   sync.Mutex
	out  int // buffers currently acquired
	peak int
}

// newDevicePool preallocates n buffers of words words each on dev through
// alloc (the spectrum layout's allocator: it picks the fault site). When
// rec is non-nil the pool reports gpu.pool.acquires, gpu.pool.waits, and
// the gpu.pool.in_use gauge.
func newDevicePool(dev *gpu.Device, g tile.Grid, n int, words int64, alloc func() (*gpu.Buffer, error), rec *obs.Recorder) (*devicePool, error) {
	if minDim := min(g.Rows, g.Cols); n <= minDim {
		return nil, fmt.Errorf("stitch: pool of %d transforms does not exceed smallest grid dimension %d (paper's minimum-pool constraint)", n, minDim)
	}
	if need := int64(n) * words; need > dev.MemWords() {
		return nil, fmt.Errorf("stitch: pool of %d transforms needs %d words, device %s has %d",
			n, need, dev.Name(), dev.MemWords())
	}
	p := &devicePool{
		ch:       make(chan *gpu.Buffer, n),
		acquires: rec.Counter(obs.CounterPoolAcquires),
		waits:    rec.Counter(obs.CounterPoolWaits),
		inUse:    rec.Gauge(obs.GaugePoolInUse),
	}
	for i := 0; i < n; i++ {
		b, err := alloc()
		if err != nil {
			p.drain()
			return nil, err
		}
		p.bufs = append(p.bufs, b)
		p.ch <- b
	}
	return p, nil
}

// acquire takes a buffer, blocking until one is recycled or abort is
// closed (pipeline teardown must not hang on a drained pool; a nil abort
// waits for as long as it takes).
func (p *devicePool) acquire(abort <-chan struct{}) (*gpu.Buffer, error) {
	var b *gpu.Buffer
	select {
	case b = <-p.ch:
	default:
		p.waits.Add(1)
		select {
		case b = <-p.ch:
		case <-abort:
			return nil, fmt.Errorf("stitch: pool acquire aborted")
		}
	}
	p.acquires.Add(1)
	p.track(+1)
	return b, nil
}

// release returns a buffer to the pool.
func (p *devicePool) release(b *gpu.Buffer) {
	p.track(-1)
	p.ch <- b
}

// track moves the occupancy by delta and publishes it.
func (p *devicePool) track(delta int) {
	p.mu.Lock()
	p.out += delta
	p.peak = max(p.peak, p.out)
	out := p.out
	p.mu.Unlock()
	p.inUse.Set(float64(out))
}

// peakInUse reports the maximum number of buffers simultaneously
// acquired.
func (p *devicePool) peakInUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// drain frees all pool memory back to the device.
func (p *devicePool) drain() {
	for _, b := range p.bufs {
		_ = b.Free()
	}
	p.bufs = nil
}

// deviceTile is a tile resident on a device: its pixels (the CPU-side CCF
// needs them), its pool buffer and the last device operation on that
// buffer (nil once waited for).
type deviceTile struct {
	img *tile.Gray16
	buf *gpu.Buffer
	ev  *gpu.Event
}

// deviceResidency is the device-side counterpart of hostCache for one
// partition of the grid: how many of the partition's pairs still need
// each tile's transform, which pool buffer holds it, and the buffer's
// return to the pool when the count reaches zero. A tile lost to a fault
// is never held, so releasing it only counts. One goroutine drives it
// (Simple-GPU's only thread, a Pipelined-GPU bookkeeping stage); the pool
// it releases into does its own locking and tracks the peak occupancy.
type deviceResidency struct {
	g          tile.Grid
	pool       *devicePool
	rc         *refCounter
	held       map[int]deviceTile
	transforms int // tiles ever held
}

// newDeviceResidency counts references for the pairs the partition owns.
func newDeviceResidency(g tile.Grid, pool *devicePool, owned []tile.Pair) *deviceResidency {
	return &deviceResidency{g: g, pool: pool, rc: newRefCounter(g, owned), held: make(map[int]deviceTile)}
}

// hold makes tile c resident once its transform has been issued into a
// buffer acquired from the pool.
func (d *deviceResidency) hold(c tile.Coord, t deviceTile) {
	d.held[d.g.Index(c)] = t
	d.transforms++
}

// tile returns c's resident transform: the zero deviceTile for a tile that
// is not (or no longer) held.
func (d *deviceResidency) tile(c tile.Coord) deviceTile {
	return d.held[d.g.Index(c)]
}

// release drops one pair's need of tile c and recycles its buffer when no
// pair of the partition needs it any more.
func (d *deviceResidency) release(c tile.Coord) error {
	i := d.g.Index(c)
	free, err := d.rc.release(i)
	if err != nil || !free {
		return err
	}
	if t, ok := d.held[i]; ok {
		d.pool.release(t.buf)
		delete(d.held, i)
	}
	return nil
}

// releasePair releases both tiles of a closed pair.
func (d *deviceResidency) releasePair(p tile.Pair) error {
	if err := d.release(p.Coord); err != nil {
		return err
	}
	return d.release(p.Neighbor())
}
