package stitch

import (
	"sort"
	"testing"

	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/tile"
)

// TestRealFFTDifferentialDisplacements is the end-to-end differential
// check for the r2c path: every one of the five variants must produce
// displacements identical to its own complex-path run — the real
// transform changes footprint, never answers.
func TestRealFFTDifferentialDisplacements(t *testing.T) {
	p := imagegen.DefaultParams(3, 4, 128, 96)
	p.Seed = 5
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	src := &MemorySource{DS: ds}

	for _, impl := range degradableVariants() {
		impl := impl
		t.Run(impl.Name(), func(t *testing.T) {
			devs := testDevices(1)
			defer closeDevices(devs)
			opts := Options{Threads: 2, Devices: devs}
			complexRes := runStitcher(t, impl, src, opts)
			opts.FFTVariant = VariantReal
			realRes := runStitcher(t, impl, src, opts)
			assertSameDisplacements(t, complexRes, realRes, "complex", "real")
		})
	}
}

// TestRealFFTDifferentialCountersUnderFaults reruns the semantic-counter
// differential with the real FFT variant: under the same deterministic
// injected read failure, all five variants must report the same
// aligned/retry/casualty counters as the complex path's absolute
// expectations — degraded-run bookkeeping is transform-variant-invariant.
func TestRealFFTDifferentialCountersUnderFaults(t *testing.T) {
	const spec = "stitch.read@r001_c002:always"
	p := imagegen.DefaultParams(3, 4, 128, 96)
	p.Seed = 11
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	src := &MemorySource{DS: ds}
	g := src.Grid()
	lostPairs := len(g.PairsOf(tile.Coord{Row: 1, Col: 2}))

	type counterSet map[string]int64
	want := counterSet{
		CounterPairsAligned:  int64(g.NumPairs() - lostPairs),
		CounterRetries:       2,
		CounterDegradedTiles: 1,
		CounterDegradedPairs: int64(lostPairs),
	}
	got := map[string]counterSet{}
	for _, impl := range degradableVariants() {
		rec := obs.New()
		inj := mustSpec(t, spec)
		devs := faultDevices(1, inj)
		opts := goldenOptions(devs)
		opts.Obs = rec
		opts.Faults = inj
		opts.MaxRetries = 2
		opts.Degrade = true
		opts.FFTVariant = VariantReal
		res, err := impl.Run(src, opts)
		closeDevices(devs)
		if err != nil {
			rec.Close()
			t.Fatalf("%s: %v", impl.Name(), err)
		}
		if !res.Degraded() {
			rec.Close()
			t.Fatalf("%s: expected a degraded run", impl.Name())
		}
		cs := counterSet{}
		for _, name := range semanticCounters {
			cs[name] = rec.CounterValue(name)
		}
		rec.Close()
		got[impl.Name()] = cs
	}

	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, c := range semanticCounters {
			if got[n][c] != want[c] {
				t.Errorf("%s: counter %s = %d, want %d", n, c, got[n][c], want[c])
			}
		}
	}
}

// TestSocketsBoundaryFaultCountedOnce pins the per-socket degraded-count
// fix: a tile on a band boundary is read (and, here, degraded) by both
// adjacent socket pipelines, but the run must count it once. With 4 rows
// and 2 sockets the partitions are rows [0,2) and [2,4); the second band
// redundantly reads row 1, so a persistent failure on tile (1,1) is hit
// by both. Only the merged run publishes; were each band to publish its
// own counters this plate would report 2 degraded tiles and 6 degraded
// pairs.
func TestSocketsBoundaryFaultCountedOnce(t *testing.T) {
	p := imagegen.DefaultParams(4, 3, 128, 96)
	p.Seed = 3
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	src := &MemorySource{DS: ds}
	g := src.Grid()
	bad := tile.Coord{Row: 1, Col: 1}
	lostPairs := len(g.PairsOf(bad))

	rec := obs.New()
	defer rec.Close()
	inj := mustSpec(t, "stitch.read@r001_c001:always")
	res, err := (&PipelinedCPU{}).Run(src, Options{
		Threads: 2, Sockets: 2,
		Faults: inj, MaxRetries: 1, Degrade: true,
		Obs: rec,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Result-level dedupe: the merged result lists the casualty once.
	if len(res.DegradedTiles) != 1 || res.DegradedTiles[0].Coord != bad {
		t.Fatalf("DegradedTiles = %v, want exactly [%v]", res.DegradedTiles, bad)
	}
	if len(res.DegradedPairs) != lostPairs {
		t.Fatalf("DegradedPairs = %d, want %d", len(res.DegradedPairs), lostPairs)
	}

	// Counter-level dedupe: one counter set from the merged result, not
	// one per band.
	if v := rec.CounterValue(CounterDegradedTiles); v != 1 {
		t.Errorf("counter %s = %d, want 1 (boundary tile double-counted)", CounterDegradedTiles, v)
	}
	if v := rec.CounterValue(CounterDegradedPairs); v != int64(lostPairs) {
		t.Errorf("counter %s = %d, want %d", CounterDegradedPairs, v, lostPairs)
	}
	if v := rec.CounterValue(CounterPairsAligned); v != int64(g.NumPairs()-lostPairs) {
		t.Errorf("counter %s = %d, want %d", CounterPairsAligned, v, g.NumPairs()-lostPairs)
	}
}
