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

// zeroAllocSizes are the transform sizes the zero-allocation pins run at
// for 64×48 tiles: the exact size and a padded one.
var zeroAllocSizes = [][2]int{{64, 48}, {72, 50}}

// TestDisplaceZeroAllocs pins the tentpole guarantee: after one warm-up
// pair, the steady-state Displace hot path of the complex CPU aligner
// performs zero heap allocations per pair, at the exact and at a padded
// transform size.
func TestDisplaceZeroAllocs(t *testing.T) {
	for _, sz := range zeroAllocSizes {
		testDisplaceZeroAllocs(t, "complex", func(w, h int) (allocAligner, error) {
			return NewAligner(w, h, Options{FFTExec: fft.ExecSerial, Planner: forcedSize(t, w, h, sz[0], sz[1])})
		})
	}
}

// TestRealDisplaceZeroAllocs is the r2c counterpart of
// TestDisplaceZeroAllocs.
func TestRealDisplaceZeroAllocs(t *testing.T) {
	for _, sz := range zeroAllocSizes {
		testDisplaceZeroAllocs(t, "real", func(w, h int) (allocAligner, error) {
			return NewRealAligner(w, h, Options{FFTExec: fft.ExecSerial, Planner: forcedSize(t, w, h, sz[0], sz[1])})
		})
	}
}

type allocAligner interface {
	Transform(*tile.Gray16) ([]complex128, error)
	Displace(a, b *tile.Gray16, fa, fb []complex128) (tile.Displacement, error)
	TransformDims() (int, int)
	Close()
}

func testDisplaceZeroAllocs(t *testing.T, layout string, mk func(w, h int) (allocAligner, error)) {
	t.Helper()
	const w, h = 64, 48
	al, err := mk(w, h)
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
	if pw, ph := al.TransformDims(); allocs != 0 {
		t.Fatalf("steady-state %s Displace at %dx%d allocates %.1f times per pair, want 0", layout, pw, ph, allocs)
	}
}

// TestAlignerPoolReuse pins the one pooling level for each constructor:
// New → Close → New hands back the same aligner and advances the reuse
// counter, different options miss, and a second Close does not insert the
// aligner twice. The deterministic pool seam keeps retention observable
// under the race detector, where sync.Pool drops Put items.
func TestAlignerPoolReuse(t *testing.T) {
	useDeterministicPools(t)
	const w, h = 22, 14
	type closer interface{ Close() }
	padded := forcedSize(t, w, h, 24, 16)
	ctors := map[string]func(Options) (closer, error){
		"complex":     func(o Options) (closer, error) { return NewAligner(w, h, o) },
		"padded":      func(o Options) (closer, error) { o.Planner = padded; return NewAligner(w, h, o) },
		"real":        func(o Options) (closer, error) { return NewRealAligner(w, h, o) },
		"real-padded": func(o Options) (closer, error) { o.Planner = padded; return NewRealAligner(w, h, o) },
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
