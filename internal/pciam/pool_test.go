package pciam

import (
	"sync"
	"testing"

	"hybridstitch/internal/fft"
)

// listPool is the deterministic pool used by retention tests: a plain
// LIFO that never drops an item, unlike sync.Pool (which sheds under GC
// pressure and deliberately drops a fraction of Puts under the race
// detector).
type listPool struct {
	mu    sync.Mutex
	items []any
}

func (p *listPool) Get() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.items)
	if n == 0 {
		return nil
	}
	v := p.items[n-1]
	p.items = p.items[:n-1]
	return v
}

func (p *listPool) Put(x any) {
	p.mu.Lock()
	p.items = append(p.items, x)
	p.mu.Unlock()
}

// useDeterministicPools swaps the package pool factory for listPool for
// the duration of the test and flushes both pool maps on entry and exit,
// so neither direction observes the other discipline's leftovers.
func useDeterministicPools(t *testing.T) {
	t.Helper()
	prev := newPool
	newPool = func() pool { return &listPool{} }
	resetPoolsForTest()
	t.Cleanup(func() {
		newPool = prev
		resetPoolsForTest()
	})
}

// TestDeterministicPoolRoundTrip pins the seam itself: what is Put is
// Got back, LIFO, with no drops.
func TestDeterministicPoolRoundTrip(t *testing.T) {
	p := &listPool{}
	if v := p.Get(); v != nil {
		t.Fatalf("empty pool returned %v", v)
	}
	p.Put(1)
	p.Put(2)
	if v := p.Get(); v != 2 {
		t.Fatalf("Get = %v, want 2 (LIFO)", v)
	}
	if v := p.Get(); v != 1 {
		t.Fatalf("Get = %v, want 1", v)
	}
	if v := p.Get(); v != nil {
		t.Fatalf("drained pool returned %v", v)
	}
}

// TestPooledAlignerSplitsOnceTokensFree pins the bug a plan-time
// serial/split decision had: an aligner built while pair workers hold
// every token, then recycled through the free list, must still split
// its transforms for a later caller that finds a token free. The split
// rule is applied on each call, so the pooled plans carry no stale
// shape. Tiles are 384×256, a frame at the fft split floor.
func TestPooledAlignerSplitsOnceTokensFree(t *testing.T) {
	useDeterministicPools(t)
	pool := fft.NewWorkerPool(1)
	defer pool.Close()
	const w, h = 384, 256
	held := pool.Reserve(1)
	al, err := NewRealAligner(w, h, Options{FFTPool: pool})
	if err != nil {
		t.Fatal(err)
	}
	al.Close()
	pool.Release(held)

	again, err := NewRealAligner(w, h, Options{FFTPool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again != al {
		t.Fatal("second acquisition built a fresh aligner; the test needs the pooled one")
	}
	_, split0 := fft.AutotuneCounts()
	if _, err := again.Transform(allocTile(w, h, 1)); err != nil {
		t.Fatal(err)
	}
	if _, split1 := fft.AutotuneCounts(); split1-split0 != 1 {
		t.Errorf("pooled aligner's forward transform forked %d times with a token free, want 1", split1-split0)
	}
}
