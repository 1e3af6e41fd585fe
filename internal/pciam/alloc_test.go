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
	// Warm-up pair: grows scratch to steady-state capacity.
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

// TestAlignerPoolReuse pins the one pooling level for each constructor:
// New → Close → New hands back the same aligner and advances the reuse
// counter, different options miss, and a second Close does not insert the
// aligner twice. The deterministic pool seam keeps retention observable
// under the race detector, where sync.Pool drops Put items.
func TestAlignerPoolReuse(t *testing.T) {
	useDeterministicPools(t)
	const w, h = 22, 14 // 22 = 2·11 is not fast: the padded aligner really pads
	type closer interface{ Close() }
	ctors := map[string]func(Options) (closer, error){
		"complex": func(o Options) (closer, error) { return NewAligner(w, h, o) },
		"padded":  func(o Options) (closer, error) { return NewPaddedAligner(w, h, o) },
		"real":    func(o Options) (closer, error) { return NewRealAligner(w, h, o) },
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
