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

// TestDisplaceZeroAllocs pins the tentpole guarantee: after one warm-up
// pair, the steady-state Displace hot path of the complex CPU aligner
// performs zero heap allocations per pair.
func TestDisplaceZeroAllocs(t *testing.T) {
	const w, h = 64, 48
	al, err := NewAligner(w, h, Options{FFTExec: fft.ExecSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer al.Close()
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
	// Warm-up pair: grows arena scratch to steady-state capacity.
	if _, err := al.Displace(a, b, fa, fb); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := al.Displace(a, b, fa, fb); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state complex Displace allocates %.1f times per pair, want 0", allocs)
	}
}

// TestRealDisplaceZeroAllocs is the r2c counterpart of
// TestDisplaceZeroAllocs.
func TestRealDisplaceZeroAllocs(t *testing.T) {
	const w, h = 64, 48
	al, err := NewRealAligner(w, h, Options{FFTExec: fft.ExecSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer al.Close()
	a := allocTile(w, h, 3)
	b := allocTile(w, h, 4)
	fa, err := al.Transform(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := al.Transform(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := al.Displace(a, b, fa, fb); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := al.Displace(a, b, fa, fb); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state real Displace allocates %.1f times per pair, want 0", allocs)
	}
}

// TestAlignerPoolReuse checks both recycling levels advance the reuse
// counter: a Closed arena feeds the next constructor, and a Put aligner
// feeds the next Get. The deterministic pool seam keeps retention
// observable under the race detector, where sync.Pool drops Put items.
func TestAlignerPoolReuse(t *testing.T) {
	useDeterministicPools(t)
	const w, h = 20, 14
	before := ArenaReuse()
	al1, err := NewAligner(w, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	al1.Close()
	if _, err := NewAligner(w, h, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := ArenaReuse(); got <= before {
		t.Fatalf("arena reuse counter did not advance after Close + rebuild: %d -> %d", before, got)
	}
	mid := ArenaReuse()
	al3, err := GetAligner(w, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	PutAligner(al3)
	al4, err := GetAligner(w, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if al4 != al3 {
		t.Fatalf("GetAligner after PutAligner returned a different aligner")
	}
	if got := ArenaReuse(); got <= mid {
		t.Fatalf("aligner reuse counter did not advance after Put + Get: %d -> %d", mid, got)
	}
	PutAligner(al4)
}
