package stitch

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"hybridstitch/internal/fault"
	"hybridstitch/internal/gpu"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
)

// degradableVariants lists the five implementations with retry/degrade
// semantics (the Fiji baseline deliberately keeps its abort-on-error
// behavior — the plugin it models has no degradation mode).
func degradableVariants() []Stitcher {
	return []Stitcher{&SimpleCPU{}, &MTCPU{}, &PipelinedCPU{}, &SimpleGPU{}, &PipelinedGPU{}}
}

// mustSpec parses a fault spec or fails the test.
func mustSpec(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	in, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatalf("spec %q: %v", spec, err)
	}
	return in
}

// faultDevices builds simulated GPUs wired to an injector.
func faultDevices(n int, in *fault.Injector) []*gpu.Device {
	devs := make([]*gpu.Device, n)
	for i := range devs {
		devs[i] = gpu.New(gpu.Config{Name: fmt.Sprintf("GPU%d", i), Faults: in})
	}
	return devs
}

// TestVariantsEquivalentUnderTransientFaults is the cross-variant
// equivalence suite: on two seeded synthetic plates, all five variants
// run under injected transient faults that succeed on retry, and every
// displacement must match the fault-free run exactly. The fault windows
// are sized so that even if one operation absorbs every failing hit it
// still succeeds within the retry budget, making completion independent
// of goroutine scheduling.
func TestVariantsEquivalentUnderTransientFaults(t *testing.T) {
	const spec = "stitch.read:nth=1,count=3;gpu.kernel.ncc:nth=1,count=2"
	plates := []struct {
		rows, cols int
		seed       int64
	}{
		{3, 4, 1},
		{4, 3, 7},
	}
	for _, pl := range plates {
		pl := pl
		t.Run(fmt.Sprintf("%dx%d_seed%d", pl.rows, pl.cols, pl.seed), func(t *testing.T) {
			p := imagegen.DefaultParams(pl.rows, pl.cols, 128, 96)
			p.Seed = pl.seed
			ds, err := imagegen.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			src := &MemorySource{DS: ds}
			baseline := runStitcher(t, &SimpleCPU{}, src, Options{})

			for _, impl := range degradableVariants() {
				// Fresh injector per run: hit counters must start at zero
				// for every variant or the windows drift.
				inj := mustSpec(t, spec)
				devs := faultDevices(2, inj)
				res, err := impl.Run(src, Options{
					Threads: 3, Devices: devs,
					Faults: inj, MaxRetries: 3, Degrade: true,
				})
				closeDevices(devs)
				if err != nil {
					t.Fatalf("%s under transient faults: %v", impl.Name(), err)
				}
				if inj.Fired() == 0 {
					t.Fatalf("%s: injector never fired — the test is vacuous", impl.Name())
				}
				if res.Degraded() {
					t.Fatalf("%s: transient faults degraded %d tiles / %d pairs; retry should have absorbed them",
						impl.Name(), len(res.DegradedTiles), len(res.DegradedPairs))
				}
				if !res.Complete() {
					t.Fatalf("%s: incomplete result under transient faults", impl.Name())
				}
				assertSameDisplacements(t, baseline, res, "fault-free", impl.Name())
			}
		})
	}
}

// failedTiles8x8 is the known-casualty set of the deterministic
// degradation suite: an interior tile, another interior tile, and a
// corner tile.
var failedTiles8x8 = []tile.Coord{
	{Row: 1, Col: 2},
	{Row: 4, Col: 4},
	{Row: 7, Col: 0},
}

const failSpec8x8 = "stitch.read@r001_c002:always;stitch.read@r004_c004:always;stitch.read@r007_c000:always"

// expectedDegradedPairs returns every pair that touches a failed tile.
func expectedDegradedPairs(g tile.Grid, failed []tile.Coord) map[tile.Pair]bool {
	want := map[tile.Pair]bool{}
	for _, c := range failed {
		for _, p := range g.PairsOf(c) {
			want[p] = true
		}
	}
	return want
}

// checkDegraded8x8 asserts the exact casualty report of the 8x8 suite.
func checkDegraded8x8(t *testing.T, name string, g tile.Grid, res *Result) {
	t.Helper()
	if len(res.DegradedTiles) != len(failedTiles8x8) {
		t.Fatalf("%s: %d degraded tiles, want %d: %v", name, len(res.DegradedTiles), len(failedTiles8x8), res.DegradedTiles)
	}
	for i, want := range failedTiles8x8 {
		got := res.DegradedTiles[i]
		if got.Coord != want {
			t.Errorf("%s: degraded tile %d = %v, want %v", name, i, got.Coord, want)
		}
		if !fault.IsInjected(got.Err) {
			t.Errorf("%s: tile %v error does not chain to the injected fault: %v", name, want, got.Err)
		}
	}
	wantPairs := expectedDegradedPairs(g, failedTiles8x8)
	if len(res.DegradedPairs) != len(wantPairs) {
		t.Fatalf("%s: %d degraded pairs, want %d: %v", name, len(res.DegradedPairs), len(wantPairs), res.DegradedPairs)
	}
	for _, dp := range res.DegradedPairs {
		if !wantPairs[dp.Pair] {
			t.Errorf("%s: unexpected degraded pair %v", name, dp.Pair)
		}
	}
	// Every pair not touching a failed tile must have its displacement.
	missing := 0
	for _, p := range g.Pairs() {
		if wantPairs[p] {
			if _, ok := res.PairDisplacement(p); ok {
				t.Errorf("%s: degraded pair %v has a displacement", name, p)
			}
			continue
		}
		if _, ok := res.PairDisplacement(p); !ok {
			missing++
			t.Errorf("%s: surviving pair %v missing its displacement", name, p)
		}
	}
	if missing > 0 {
		t.Fatalf("%s: %d surviving pairs missing", name, missing)
	}
}

// TestDeterministicDegradation8x8 is the degradation suite: an 8x8 plate
// served from TIFF files with permanent read failures on 3 known tiles
// must complete on every variant, report exactly those tiles, degrade
// exactly the pairs touching them, and keep every other displacement.
func TestDeterministicDegradation8x8(t *testing.T) {
	p := imagegen.DefaultParams(8, 8, 64, 48)
	p.Seed = 3
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	src := &DirSource{Dir: dir, GridSpec: ds.Params.Grid}
	g := src.Grid()

	for _, impl := range degradableVariants() {
		inj := mustSpec(t, failSpec8x8)
		devs := faultDevices(2, inj)
		res, err := impl.Run(src, Options{
			Threads: 3, Devices: devs,
			Faults: inj, MaxRetries: 2, Degrade: true,
		})
		closeDevices(devs)
		if err != nil {
			t.Fatalf("%s: run failed instead of degrading: %v", impl.Name(), err)
		}
		checkDegraded8x8(t, impl.Name(), g, res)
	}
}

// TestDegradationReportIsDeterministic re-runs the concurrent variants
// and demands bit-identical casualty reports — same tiles, same pairs,
// same error strings — regardless of scheduling.
func TestDegradationReportIsDeterministic(t *testing.T) {
	src := testDataset(t, 8, 8)
	for _, impl := range []Stitcher{&MTCPU{}, &PipelinedCPU{}, &PipelinedGPU{}} {
		var first string
		for run := 0; run < 3; run++ {
			inj := mustSpec(t, failSpec8x8)
			devs := faultDevices(1, inj)
			res, err := impl.Run(src, Options{
				Threads: 4, Devices: devs,
				Faults: inj, MaxRetries: 2, Degrade: true,
			})
			closeDevices(devs)
			if err != nil {
				t.Fatalf("%s run %d: %v", impl.Name(), run, err)
			}
			report := fmt.Sprintf("tiles=%v pairs=%v", res.DegradedTiles, res.DegradedPairs)
			if run == 0 {
				first = report
				continue
			}
			if report != first {
				t.Fatalf("%s: run %d report differs:\n  first: %s\n  now:   %s", impl.Name(), run, first, report)
			}
		}
	}
}

// TestDegradeDisabledStillAborts: without Degrade, a persistent fault
// keeps the pre-existing abort semantics on every variant.
func TestDegradeDisabledStillAborts(t *testing.T) {
	src := testDataset(t, 3, 3)
	for _, impl := range degradableVariants() {
		inj := mustSpec(t, "stitch.read@r001_c001:always")
		devs := faultDevices(1, inj)
		_, err := impl.Run(src, Options{Threads: 2, Devices: devs, Faults: inj, MaxRetries: 1})
		closeDevices(devs)
		if err == nil {
			t.Errorf("%s: persistent fault swallowed with Degrade off", impl.Name())
			continue
		}
		if !fault.IsInjected(err) {
			t.Errorf("%s: error does not chain to the injection: %v", impl.Name(), err)
		}
	}
}

// TestSocketPipelinesMergeDegradation: the per-socket decomposition must
// merge casualty reports from its band pipelines — including a failed
// tile on the band boundary, which both adjacent bands read — without
// double-reporting.
func TestSocketPipelinesMergeDegradation(t *testing.T) {
	src := testDataset(t, 4, 3)
	g := src.Grid()
	// Row 1 is the boundary row of the 2-socket split: band 1 re-reads it
	// redundantly for its top north pairs.
	inj := mustSpec(t, "stitch.read@r001_c001:always")
	res, err := (&PipelinedCPU{}).Run(src, Options{
		Threads: 2, Sockets: 2, Faults: inj, MaxRetries: 1, Degrade: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DegradedTiles) != 1 || res.DegradedTiles[0].Coord != (tile.Coord{Row: 1, Col: 1}) {
		t.Fatalf("degraded tiles = %v, want exactly (1,1)", res.DegradedTiles)
	}
	wantPairs := expectedDegradedPairs(g, []tile.Coord{{Row: 1, Col: 1}})
	if len(res.DegradedPairs) != len(wantPairs) {
		t.Fatalf("degraded pairs = %v, want the %d pairs of (1,1)", res.DegradedPairs, len(wantPairs))
	}
	for _, dp := range res.DegradedPairs {
		if !wantPairs[dp.Pair] {
			t.Errorf("unexpected degraded pair %v", dp.Pair)
		}
	}
	for _, p := range g.Pairs() {
		if _, ok := res.PairDisplacement(p); ok != !wantPairs[p] {
			t.Errorf("pair %v: displacement present=%v, degraded=%v", p, ok, wantPairs[p])
		}
	}
}

// TestCorruptTileFileDegrades: a truncated TIFF is a permanent fault —
// classified tiffio.ErrCorrupt, not retried, and reported as a degraded
// tile while the rest of the plate completes.
func TestCorruptTileFileDegrades(t *testing.T) {
	p := imagegen.DefaultParams(3, 3, 64, 48)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	bad := tile.Coord{Row: 1, Col: 1}
	if err := os.WriteFile(TilePath(dir, bad), []byte("II*\x00trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := &DirSource{Dir: dir, GridSpec: ds.Params.Grid}

	res, err := (&SimpleCPU{}).Run(src, Options{Degrade: true, MaxRetries: 3})
	if err != nil {
		t.Fatalf("corrupt tile aborted the run: %v", err)
	}
	if len(res.DegradedTiles) != 1 || res.DegradedTiles[0].Coord != bad {
		t.Fatalf("degraded tiles = %v, want exactly %v", res.DegradedTiles, bad)
	}
	dtErr := res.DegradedTiles[0].Err
	if !errors.Is(dtErr, tiffio.ErrCorrupt) {
		t.Errorf("degraded tile error should classify as tiffio.ErrCorrupt: %v", dtErr)
	}
	if !fault.IsPermanent(dtErr) {
		t.Errorf("corrupt file should be a permanent fault: %v", dtErr)
	}
	if want := expectedDegradedPairs(src.Grid(), []tile.Coord{bad}); len(res.DegradedPairs) != len(want) {
		t.Errorf("degraded pairs = %v, want the %d pairs of %v", res.DegradedPairs, len(want), bad)
	}
}

// TestGPUKernelFaultDegradesPair: a persistent device-side fault on the
// NCC kernel degrades the affected pairs while the run completes and the
// device leaks nothing.
func TestGPUKernelFaultDegradesPair(t *testing.T) {
	src := testDataset(t, 3, 3)
	for _, impl := range []Stitcher{&SimpleGPU{}, &PipelinedGPU{}} {
		inj := mustSpec(t, "gpu.kernel.ncc:nth=2,count=3")
		devs := faultDevices(1, inj)
		res, err := impl.Run(src, Options{
			Threads: 2, Devices: devs, Faults: inj, MaxRetries: 1, Degrade: true,
		})
		if err != nil {
			closeDevices(devs)
			t.Fatalf("%s: %v", impl.Name(), err)
		}
		// nth=2,count=3 with MaxRetries=1 guarantees at least one pair
		// exhausts its budget (two consecutive failing attempts).
		if len(res.DegradedPairs) == 0 {
			t.Errorf("%s: kernel fault produced no degraded pairs", impl.Name())
		}
		if len(res.DegradedTiles) != 0 {
			t.Errorf("%s: kernel fault should not degrade tiles: %v", impl.Name(), res.DegradedTiles)
		}
		for _, p := range src.Grid().Pairs() {
			_, ok := res.PairDisplacement(p)
			degraded := false
			for _, dp := range res.DegradedPairs {
				if dp.Pair == p {
					degraded = true
				}
			}
			if ok == degraded {
				t.Errorf("%s: pair %v present=%v degraded=%v", impl.Name(), p, ok, degraded)
			}
		}
		used, _, _, _ := devs[0].MemStats()
		closeDevices(devs)
		if used != 0 {
			t.Errorf("%s: device leaks %d words after degraded run", impl.Name(), used)
		}
	}
}

// TestNoFaultSpecIsFreeOfSideEffects: with no injector configured, runs
// behave exactly as before the fault layer existed.
func TestNoFaultSpecIsFreeOfSideEffects(t *testing.T) {
	src := testDataset(t, 3, 3)
	base := runStitcher(t, &SimpleCPU{}, src, Options{})
	res := runStitcher(t, &SimpleCPU{}, src, Options{MaxRetries: 5, Degrade: true})
	assertSameDisplacements(t, base, res, "plain", "degrade-armed")
	if res.Degraded() {
		t.Errorf("degrade-armed clean run reported casualties: %v %v", res.DegradedTiles, res.DegradedPairs)
	}
}

func TestMaskDegradedReadsBlankForLostTiles(t *testing.T) {
	src := testDataset(t, 3, 3)
	clean := &Result{}
	if MaskDegraded(src, clean) != Source(src) {
		t.Error("clean result must return the source unchanged")
	}
	res := &Result{}
	res.DegradedTiles = append(res.DegradedTiles, DegradedTile{
		Coord: tile.Coord{Row: 1, Col: 1}, Err: errors.New("lost")})
	masked := MaskDegraded(src, res)
	g := masked.Grid()
	blank, err := masked.ReadTile(tile.Coord{Row: 1, Col: 1})
	if err != nil {
		t.Fatal(err)
	}
	if blank.W != g.TileW || blank.H != g.TileH {
		t.Errorf("blank tile %dx%d, want %dx%d", blank.W, blank.H, g.TileW, g.TileH)
	}
	for _, px := range blank.Pix {
		if px != 0 {
			t.Fatal("masked tile must be blank")
		}
	}
	real1, err := masked.ReadTile(tile.Coord{Row: 0, Col: 0})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := src.ReadTile(tile.Coord{Row: 0, Col: 0})
	if real1.Pix[100] != want.Pix[100] {
		t.Error("surviving tiles must pass through unchanged")
	}
}

// TestEveryRegisteredSiteFires keeps the fault registry honest: for each
// registered site, a 3×3 plate under an implementation that reaches the
// site, with "<site>:nth=1", must fire the injector at least once. A
// site no production path hits can therefore not be registered — a spec
// naming it would arm a rule that never fires. The run itself may fail
// or degrade; only the firing is asserted.
func TestEveryRegisteredSiteFires(t *testing.T) {
	mem := testDataset(t, 3, 3)
	dir := t.TempDir()
	if err := WriteDataset(dir, mem.DS); err != nil {
		t.Fatal(err)
	}
	disk := &DirSource{Dir: dir, GridSpec: mem.Grid()}
	for _, site := range fault.Sites() {
		t.Run(site.String(), func(t *testing.T) {
			inj := mustSpec(t, site.String()+":nth=1")
			var src Source = mem
			var impl Stitcher = &SimpleCPU{}
			var devs []*gpu.Device
			switch {
			case strings.HasPrefix(site.String(), "gpu."):
				impl, devs = &PipelinedGPU{}, faultDevices(1, inj)
				defer closeDevices(devs)
			case strings.HasPrefix(site.String(), "tiffio."):
				src = disk
				tiffio.SetInjector(inj)
				defer tiffio.SetInjector(nil)
			}
			_, err := impl.Run(src, Options{
				Threads: 2, Devices: devs, Faults: inj, MaxRetries: 1, Degrade: true,
			})
			if inj.Fired() < 1 {
				t.Errorf("%s under %s fired %d times (run err: %v)", site, impl.Name(), inj.Fired(), err)
			}
		})
	}
}
