package stitch

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"hybridstitch/internal/analysis/leaktest"
	"hybridstitch/internal/imagegen"
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
		err = r.workers(workers, func(w int, al aligner) error {
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
