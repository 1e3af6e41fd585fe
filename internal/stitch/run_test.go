package stitch

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hybridstitch/internal/analysis/leaktest"
	"hybridstitch/internal/gpu"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/pciam"
	"hybridstitch/internal/tile"
)

// countingSource counts the reads that reach the source, per tile.
type countingSource struct {
	Source
	reads []atomic.Int64
}

func (c *countingSource) ReadTile(at tile.Coord) (*tile.Gray16, error) {
	c.reads[c.Grid().Index(at)].Add(1)
	return c.Source.ReadTile(at)
}

// TestRunEngineInvariants drives the pair engine directly, the way no
// single scheduler does: eight goroutines take the pairs round-robin, so
// nearly every tile is wanted by several of them at once. One tile's
// read and another's transform fail on their first attempt only; with no
// retries that is a persistent failure, and a later pair re-attempting
// the tile would find it healed. In both abort and degrade mode each
// tile must be read and transformed at most once, the two failures must
// stick, every pair must be settled exactly once, and the host
// refcounts must end at zero with nothing resident.
//
// The two pieces the pipelined and GPU schedulers share on top of that
// are pinned by the subtests: the bookkeeping step (arrivals) and the
// device residency.
func TestRunEngineInvariants(t *testing.T) {

	p := imagegen.DefaultParams(4, 4, 64, 48)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	badRead, badFFT := tile.Coord{Row: 1, Col: 1}, tile.Coord{Row: 2, Col: 3}
	const spec = "stitch.read@r001_c001:nth=1;stitch.fft@r002_c003:nth=1"

	for _, degrade := range []bool{false, true} {
		src := &countingSource{Source: &MemorySource{DS: ds}}
		g := src.Grid()
		src.reads = make([]atomic.Int64, g.NumTiles())
		r, err := newRun(src, Options{Faults: mustSpec(t, spec), Degrade: degrade}, "engine-test")
		if err != nil {
			t.Fatal(err)
		}
		lost := expectedDegradedPairs(g, []tile.Coord{badRead, badFFT})

		const workers = 8
		pairs := g.Pairs()
		var mu sync.Mutex
		failed := map[tile.Pair]error{}
		err = r.workers(workers, func(w int, al *pciam.RealAligner) error {
			for i := w; i < len(pairs); i += workers {
				if err := r.pair(al, pairs[i]); err != nil {
					mu.Lock()
					failed[pairs[i]] = err
					mu.Unlock()
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.end(nil)
		if err != nil {
			t.Fatal(err)
		}

		for i := range src.reads {
			want := int64(1)
			if g.CoordOf(i) == badRead {
				want = 0 // the injected failure precedes the source
			}
			if n := src.reads[i].Load(); n != want {
				t.Errorf("degrade=%v: tile %v reached the source %d times, want %d", degrade, g.CoordOf(i), n, want)
			}
		}
		if want := g.NumTiles() - 2; res.TransformsComputed != want {
			t.Errorf("degrade=%v: %d transforms stored, want %d", degrade, res.TransformsComputed, want)
		}
		if n := r.fp.inj.Fired(); n != 2 {
			t.Errorf("degrade=%v: injector fired %d times, want 2 (a failed tile was re-attempted)", degrade, n)
		}

		// Exactly the pairs of the two lost tiles go without a
		// displacement: casualties in degrade mode, errors in abort mode.
		casualties := failed
		if degrade {
			if len(failed) != 0 {
				t.Errorf("degrade mode returned errors: %v", failed)
			}
			casualties = map[tile.Pair]error{}
			for _, dp := range res.DegradedPairs {
				casualties[dp.Pair] = dp.Err
			}
		}
		for _, pr := range pairs {
			_, displaced := res.PairDisplacement(pr)
			if _, casualty := casualties[pr]; displaced == casualty || casualty != lost[pr] {
				t.Errorf("degrade=%v: pair %v displaced=%v casualty=%v, lost tile=%v", degrade, pr, displaced, casualty, lost[pr])
			}
		}
		for i := 0; i < g.NumTiles(); i++ {
			if n := r.cache.rc.remaining(i); n != 0 {
				t.Errorf("degrade=%v: tile %v ends with %d references", degrade, g.CoordOf(i), n)
			}
		}
		if live, _, _ := r.cache.stats(); live != 0 {
			t.Errorf("degrade=%v: %d tiles still resident", degrade, live)
		}
	}

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		t.Run(fmt.Sprintf("bookkeeping/seed%d", seed), func(t *testing.T) { bookkeepingInvariants(t, rng) })
		t.Run(fmt.Sprintf("residency/seed%d", seed), func(t *testing.T) { residencyInvariants(t, rng) })
	}
}

// gridSource is a Source nobody reads from.
type gridSource struct{ g tile.Grid }

func (s gridSource) Grid() tile.Grid { return s.g }

func (gridSource) ReadTile(c tile.Coord) (*tile.Gray16, error) {
	return nil, fmt.Errorf("tile %v read in a bookkeeping-only test", c)
}

// randomGrid draws a 2..6 × 2..6 grid and loses each tile with
// probability 1/6.
func randomGrid(rng *rand.Rand) (g tile.Grid, failed map[tile.Coord]error) {
	g = tile.Grid{Rows: 2 + rng.Intn(5), Cols: 2 + rng.Intn(5), TileW: 8, TileH: 8}
	failed = map[tile.Coord]error{}
	for i := 0; i < g.NumTiles(); i++ {
		if rng.Intn(6) == 0 {
			failed[g.CoordOf(i)] = fmt.Errorf("tile %d lost", i)
		}
	}
	return g, failed
}

// bookkeepingInvariants feeds the engine's bookkeeping step the terminal
// events of one to three row partitions, each in its own random order on
// its own goroutine, with random tile failures. Every pair must come out
// of exactly one arrive call — its owner's, at the arrival of its second
// tile — as ready when both tiles are sound and as a settled casualty
// otherwise.
func bookkeepingInvariants(t *testing.T, rng *rand.Rand) {
	g, failed := randomGrid(rng)
	r, err := newRun(gridSource{g}, Options{Degrade: true}, "bookkeeping-test")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		decided = map[tile.Pair]bool{} // pair → came out ready
		wg      sync.WaitGroup
	)
	for _, pt := range tile.SplitRows(g.Rows, 1+rng.Intn(3)) {
		order := needOrder(g, pt, TraverseRow)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		wg.Add(1)
		go func(pt tile.Band) {
			defer wg.Done()
			bk := r.arrivals(pt)
			arrived := map[tile.Coord]bool{}
			for _, c := range order {
				ready, lost, err := bk.arrive(c, failed[c])
				if err != nil {
					t.Error(err)
					return
				}
				arrived[c] = true
				for i, p := range append(ready, lost...) {
					isReady := i < len(ready)
					other := p.Coord
					if other == c {
						other = p.Neighbor()
					}
					sound := failed[p.Coord] == nil && failed[p.Neighbor()] == nil
					mu.Lock()
					_, dup := decided[p]
					decided[p] = isReady
					mu.Unlock()
					switch {
					case dup:
						t.Errorf("pair %v decided twice", p)
					case !pt.Owns(p):
						t.Errorf("band [%d,%d) decided pair %v it does not own", pt.Lo, pt.Hi, p)
					case p.Coord != c && p.Neighbor() != c, !arrived[other]:
						t.Errorf("pair %v decided at the arrival of %v, not of its second tile", p, c)
					case isReady != sound:
						t.Errorf("pair %v ready=%v with tiles sound=%v", p, isReady, sound)
					}
					if isReady {
						if err := r.settle(p, tile.Displacement{Corr: 1}, nil); err != nil {
							t.Error(err)
						}
					}
				}
			}
		}(pt)
	}
	wg.Wait()
	res, err := r.end(nil)
	if err != nil {
		t.Fatal(err)
	}
	casualties := map[tile.Pair]bool{}
	for _, dp := range res.DegradedPairs {
		casualties[dp.Pair] = true
	}
	for _, p := range g.Pairs() {
		ready, ok := decided[p]
		_, displaced := res.PairDisplacement(p)
		if !ok || displaced != ready || casualties[p] == ready {
			t.Errorf("pair %v: decided=%v ready=%v displaced=%v casualty=%v", p, ok, ready, displaced, casualties[p])
		}
	}
	if len(res.DegradedTiles) != len(failed) {
		t.Errorf("%d tiles reported lost, want %d", len(res.DegradedTiles), len(failed))
	}
	for i := 0; i < g.NumTiles(); i++ {
		if n := r.cache.rc.remaining(i); n != 0 {
			t.Errorf("tile %v ends with %d host references", g.CoordOf(i), n)
		}
	}
}

// residencyInvariants walks a random pair order the way Simple-GPU does —
// first use acquires and holds, every pair releases both tiles — on the
// smallest pool the paper's constraint allows, min(rows, cols)+1, with
// random tile failures before or after the acquire. The order is a
// traversal along the grid's short axis, the orders that fit that pool;
// an acquire that would block fails the test instead of hanging it.
func residencyInvariants(t *testing.T, rng *rand.Rand) {
	g, failed := randomGrid(rng)
	n := min(g.Rows, g.Cols) + 1
	dev := gpu.New(gpu.Config{})
	defer dev.Close()
	pool, err := newDevicePool(dev, g, n, 64, func() (*gpu.Buffer, error) { return dev.Alloc(64) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.drain()
	resident := newDeviceResidency(g, pool, g.Pairs())

	fits := Traversals()
	switch {
	case g.Rows < g.Cols:
		fits = []Traversal{TraverseColumn, TraverseChainedColumn}
	case g.Rows > g.Cols:
		fits = []Traversal{TraverseRow, TraverseChainedRow}
	}
	aborted := make(chan struct{})
	close(aborted)
	outstanding := map[*gpu.Buffer]bool{}
	acquire := func() *gpu.Buffer {
		buf, err := pool.acquire(aborted)
		if err != nil {
			t.Fatalf("%dx%d: pool of %d drained: %v", g.Rows, g.Cols, n, err)
		}
		if outstanding[buf] {
			t.Fatalf("buffer handed out twice: it was released twice")
		}
		outstanding[buf] = true
		return buf
	}
	seen := map[tile.Coord]bool{}
	for _, p := range fits[rng.Intn(len(fits))].PairOrder(g) {
		for _, c := range [2]tile.Coord{p.Coord, p.Neighbor()} {
			if seen[c] {
				continue
			}
			seen[c] = true
			switch {
			case failed[c] == nil:
				resident.hold(c, deviceTile{buf: acquire()})
			case rng.Intn(2) == 0: // lost on the device: the scheduler returns the buffer
				buf := acquire()
				delete(outstanding, buf)
				pool.release(buf)
			}
		}
		before := map[tile.Coord]*gpu.Buffer{p.Coord: resident.tile(p.Coord).buf, p.Neighbor(): resident.tile(p.Neighbor()).buf}
		if err := resident.releasePair(p); err != nil {
			t.Fatal(err)
		}
		for c, buf := range before {
			if failed[c] != nil && buf != nil {
				t.Errorf("lost tile %v holds a buffer", c)
			}
			if buf != nil && resident.tile(c).buf == nil {
				delete(outstanding, buf) // recycled at its last pair
			}
		}
		if pool.out != len(resident.held) || pool.out != len(outstanding) {
			t.Fatalf("after %v: %d buffers out, %d tiles held, %d acquired and not recycled", p, pool.out, len(resident.held), len(outstanding))
		}
	}
	if pool.out != 0 || len(pool.ch) != n {
		t.Errorf("pool ends with %d out, %d of %d free", pool.out, len(pool.ch), n)
	}
	if pool.peakInUse() > n {
		t.Errorf("peak %d exceeds the pool of %d", pool.peakInUse(), n)
	}
	if want := g.NumTiles() - len(failed); resident.transforms != want {
		t.Errorf("%d transforms held, want %d", resident.transforms, want)
	}
	for i := 0; i < g.NumTiles(); i++ {
		if k := resident.rc.remaining(i); k != 0 {
			t.Errorf("tile %v ends with %d device references", g.CoordOf(i), k)
		}
	}
}

// brokenSource fails every read.
type brokenSource struct{ Source }

func (brokenSource) ReadTile(tile.Coord) (*tile.Gray16, error) {
	return nil, errors.New("disk on fire")
}

// TestFailedWorkersLeakNothing: when every worker of a fan-out dies on
// its first read, the run must return the error with no goroutine left
// behind. Fiji with one thread used to strand the goroutine feeding its
// work channel.
func TestFailedWorkersLeakNothing(t *testing.T) {
	src := brokenSource{testDataset(t, 3, 3)}
	for _, tc := range []struct {
		impl    Stitcher
		threads int
	}{{&Fiji{}, 1}, {&Fiji{}, 3}, {&MTCPU{}, 4}} {
		if _, err := tc.impl.Run(src, Options{Threads: tc.threads}); err == nil {
			t.Errorf("%s: read failure swallowed", tc.impl.Name())
		}
	}
	leaktest.VerifyNone(t)
}
