package pciam

import (
	"math/rand"
	"testing"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/tile"
)

// allocTile builds a deterministic pseudo-random tile so the correlation
// surface has a real peak to resolve.
func allocTile(w, h int, seed int64) *tile.Gray16 {
	rng := rand.New(rand.NewSource(seed))
	t := &tile.Gray16{W: w, H: h, Pix: make([]uint16, w*h)}
	for i := range t.Pix {
		t.Pix[i] = uint16(rng.Intn(1 << 12))
	}
	return t
}

// zeroAllocSizes are the tile sizes the zero-allocation pins run at: one
// the size rule keeps and one it pads (116×87 → 120×90).
var zeroAllocSizes = [][2]int{{64, 48}, {116, 87}}

// TestDisplaceZeroAllocs pins the tentpole guarantee: after one warm-up
// pair, the steady-state Displace hot path of the CPU aligner performs
// zero heap allocations per pair, at the exact and at a padded transform
// size, with one peak and with the multi-peak search.
func TestDisplaceZeroAllocs(t *testing.T) {
	for _, sz := range zeroAllocSizes {
		for k := 1; k <= 3; k++ {
			al, err := NewRealAligner(sz[0], sz[1], Options{FFTPool: fft.NewWorkerPool(0), NPeaks: k})
			if err != nil {
				t.Fatal(err)
			}
			testDisplaceZeroAllocs(t, al)
			al.Close()
		}
	}
}

// TestRealDisplaceZeroAllocs pins the same guarantee for an aligner the
// pool serves back (New → warm pair → Close → New): reuse hands over the
// plan and scratch intact, so the re-served aligner's Displace stays
// allocation-free at the exact and at a padded transform size.
func TestRealDisplaceZeroAllocs(t *testing.T) {
	useDeterministicPools(t)
	for _, sz := range zeroAllocSizes {
		w, h := sz[0], sz[1]
		opts := Options{FFTPool: fft.NewWorkerPool(0)}
		first, err := NewRealAligner(w, h, opts)
		if err != nil {
			t.Fatal(err)
		}
		a, b := allocTile(w, h, 1), allocTile(w, h, 2)
		if _, err := first.DisplaceTiles(a, b); err != nil {
			t.Fatal(err)
		}
		first.Close()
		al, err := NewRealAligner(w, h, opts)
		if err != nil {
			t.Fatal(err)
		}
		if al != first {
			t.Fatalf("%dx%d: New after Close built a different aligner", w, h)
		}
		testDisplaceZeroAllocs(t, al)
		al.Close()
	}
}

// testDisplaceZeroAllocs warms al with one pair and fails if further
// Displace calls on it allocate.
func testDisplaceZeroAllocs(t *testing.T, al *RealAligner) {
	t.Helper()
	w, h := al.w, al.h
	a := allocTile(w, h, 1)
	b := allocTile(w, h, 2)
	fa, err := al.Transform(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := al.Transform(b)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up pair: grows scratch to steady-state capacity.
	if _, err := al.Displace(a, b, fa, fb); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := al.Displace(a, b, fa, fb); err != nil {
			t.Fatal(err)
		}
	})
	if pw, ph := al.TransformDims(); allocs != 0 {
		t.Fatalf("steady-state Displace at %dx%d, NPeaks %d, allocates %.1f times per pair, want 0", pw, ph, al.opts.NPeaks, allocs)
	}
}

// TestAlignerPoolReuse pins the one pooling level at an exact and at a
// padded size: New → Close → New hands back the same aligner and
// advances the reuse counter, different options miss, and a second Close
// does not insert the aligner twice. The deterministic pool seam keeps retention observable
// under the race detector, where sync.Pool drops Put items.
func TestAlignerPoolReuse(t *testing.T) {
	useDeterministicPools(t)
	type closer interface{ Close() }
	ctors := map[string]func(Options) (closer, error){
		"exact":  func(o Options) (closer, error) { return NewRealAligner(16, 12, o) },
		"padded": func(o Options) (closer, error) { return NewRealAligner(22, 14, o) }, // at 24×14
	}
	for name, mk := range ctors {
		must := func(o Options) closer {
			t.Helper()
			al, err := mk(o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return al
		}
		al1 := must(Options{})
		before := ArenaReuse()
		al1.Close()
		al1.Close()
		if other := must(Options{NPeaks: 2}); other == al1 {
			t.Fatalf("%s: NPeaks=2 was served the NPeaks=1 aligner", name)
		}
		if got := ArenaReuse(); got != before {
			t.Fatalf("%s: a pool miss advanced the reuse counter %d -> %d", name, before, got)
		}
		if al2 := must(Options{}); al2 != al1 {
			t.Fatalf("%s: New after Close built a different aligner", name)
		}
		if got := ArenaReuse(); got != before+1 {
			t.Fatalf("%s: reuse counter %d -> %d after Close + New, want +1", name, before, got)
		}
		if al3 := must(Options{}); al3 == al1 {
			t.Fatalf("%s: double Close inserted the aligner twice", name)
		}
	}
}
