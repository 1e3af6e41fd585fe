package stitch

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"hybridstitch/internal/gpu"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/tile"
)

// -update rewrites the golden span trees instead of comparing:
//
//	go test ./internal/stitch/ -run TestGoldenSpanTrees -update
var updateGolden = flag.Bool("update", false, "rewrite golden span-tree files")

// goldenOptions is the deterministic single-worker configuration: with
// one worker per stage the span *structure* (parents, names, attrs) is a
// pure function of the traversal, so the canonical tree is reproducible
// byte-for-byte. Durations never appear in the tree.
func goldenOptions(devs []*gpu.Device) Options {
	return Options{
		Threads:     1,
		CCFThreads:  1,
		ReadThreads: 1,
		FFTStreams:  1,
		Devices:     devs,
	}
}

// TestGoldenSpanTrees runs each of the five variants over the same tiny
// generated plate and asserts the exact span nesting against checked-in
// goldens. Span ordering inside the tree is canonical (content-sorted),
// so this pins hierarchy and attributes — not timing.
func TestGoldenSpanTrees(t *testing.T) {
	p := imagegen.DefaultParams(2, 2, 128, 96)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	src := &MemorySource{DS: ds}

	for _, impl := range degradableVariants() {
		impl := impl
		t.Run(impl.Name(), func(t *testing.T) {
			rec := obs.New()
			defer rec.Close()
			var devs []*gpu.Device
			if impl.Name() == "simple-gpu" || impl.Name() == "pipelined-gpu" {
				devs = testDevices(1)
				defer closeDevices(devs)
			}
			opts := goldenOptions(devs)
			opts.Obs = rec
			runStitcher(t, impl, src, opts)
			if n := rec.Dropped(); n > 0 {
				t.Fatalf("ring dropped %d spans; tree would be partial", n)
			}
			got := rec.CanonicalTree()

			path := filepath.Join("testdata", "golden", impl.Name()+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create goldens)", err)
			}
			if got != string(want) {
				t.Errorf("span tree drifted from %s (re-run with -update if intentional)\n--- got ---\n%s--- want ---\n%s",
					path, got, want)
			}
		})
	}
}

// semanticCounters are the variant-invariant observability counters:
// whatever the execution strategy, the same plate must yield the same
// aligned-pair, retry, and casualty counts. (tiles.read and transforms
// are deliberately excluded — they legitimately differ with device
// partitioning.)
var semanticCounters = []string{
	CounterPairsAligned,
	CounterRetries,
	CounterDegradedTiles,
	CounterDegradedPairs,
}

// TestDifferentialSemanticCounters runs all five variants over the same
// seeded plate with a deterministic always-failing read and asserts they
// report identical semantic counter values.
func TestDifferentialSemanticCounters(t *testing.T) {
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
	got := map[string]counterSet{}
	for _, impl := range degradableVariants() {
		rec := obs.New()
		inj := mustSpec(t, spec)
		// One device: multi-device partitioning re-reads boundary tiles,
		// which is exactly the variance the semantic counters exclude.
		devs := faultDevices(1, inj)
		opts := goldenOptions(devs)
		opts.Obs = rec
		opts.Faults = inj
		opts.MaxRetries = 2
		opts.Degrade = true
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

	// Absolute expectations for one variant anchor the comparison (all
	// variants agreeing on a wrong value must not pass).
	want := counterSet{
		CounterPairsAligned:  int64(g.NumPairs() - lostPairs),
		CounterRetries:       2, // MaxRetries exhausted on the one failed read
		CounterDegradedTiles: 1,
		CounterDegradedPairs: int64(lostPairs),
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

// TestPipelinedGPUTraceShowsCopyComputeOverlap is the acceptance test for
// the paper's core pipelining claim (Fig 9): in the Chrome trace of a
// Pipelined-GPU run, the H2D copy of tile n+1 overlaps the FFT kernel of
// tile n. Copies are slowed to PCIe-ish bandwidth so the overlap window
// is wide, and single-threaded stages keep per-track FIFO order equal to
// tile order.
func TestPipelinedGPUTraceShowsCopyComputeOverlap(t *testing.T) {
	p := imagegen.DefaultParams(3, 4, 128, 96)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	src := &MemorySource{DS: ds}

	rec := obs.New()
	defer rec.Close()
	dev := gpu.New(gpu.Config{Name: "GPU0", Obs: rec, H2DBytesPerSec: 5e7})
	defer dev.Close()

	opts := goldenOptions([]*gpu.Device{dev})
	opts.Obs = rec
	runStitcher(t, &PipelinedGPU{}, src, opts)
	dev.Close() // flush the device's stream dispatchers into rec

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf, map[string]string{"impl": "pipelined-gpu"}); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.DecodeChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	byTrack := func(track, name string) []obs.CompletedSpan {
		var out []obs.CompletedSpan
		for _, s := range spans {
			if s.Track == track && s.Name == name {
				out = append(out, s)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
		return out
	}
	h2d := byTrack("GPU0/copy/memcpyH2D", "H2D")
	fft := byTrack("GPU0/fft0/kernel", "rfft2d")
	if len(h2d) != src.Grid().NumTiles() || len(fft) != src.Grid().NumTiles() {
		t.Fatalf("trace has %d H2D and %d rfft2d spans, want %d each", len(h2d), len(fft), src.Grid().NumTiles())
	}

	// The copy stream and the FFT stream are FIFO, so index i on each
	// track is tile i in read order.
	overlaps := 0
	for i := 0; i+1 < len(h2d); i++ {
		next, kern := h2d[i+1], fft[i]
		if next.Start < kern.End && kern.Start < next.End {
			overlaps++
		}
	}
	if overlaps == 0 {
		t.Fatalf("no H2D[n+1]/rfft2d[n] overlap in %d tile slots: pipeline did not overlap copy with compute", len(h2d)-1)
	}
	t.Logf("%d/%d tile slots show copy/compute overlap", overlaps, len(h2d)-1)
}
