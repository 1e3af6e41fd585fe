package stitch

import (
	"math"
	"testing"

	"hybridstitch/internal/gpu"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/tile"
)

// testDataset builds a small feature-rich dataset once per size.
func testDataset(t testing.TB, rows, cols int) *MemorySource {
	t.Helper()
	p := imagegen.DefaultParams(rows, cols, 128, 96)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return &MemorySource{DS: ds}
}

func testDevices(n int) []*gpu.Device {
	devs := make([]*gpu.Device, n)
	for i := range devs {
		devs[i] = gpu.New(gpu.Config{Name: "GPU" + string(rune('0'+i))})
	}
	return devs
}

func closeDevices(devs []*gpu.Device) {
	for _, d := range devs {
		d.Close()
	}
}

func runStitcher(t testing.TB, s Stitcher, src Source, opts Options) *Result {
	t.Helper()
	res, err := s.Run(src, opts)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	if !res.Complete() {
		t.Fatalf("%s: incomplete result", s.Name())
	}
	return res
}

func assertSameDisplacements(t *testing.T, ref, got *Result, refName, gotName string) {
	t.Helper()
	for _, p := range ref.Grid.Pairs() {
		dr, _ := ref.PairDisplacement(p)
		dg, ok := got.PairDisplacement(p)
		if !ok {
			t.Fatalf("%s missing pair %v", gotName, p)
		}
		if dr.X != dg.X || dr.Y != dg.Y || math.Abs(dr.Corr-dg.Corr) > 1e-9 {
			t.Errorf("pair %v %s: %s=(%d,%d,%.6f) %s=(%d,%d,%.6f)",
				p.Coord, p.Dir, refName, dr.X, dr.Y, dr.Corr, gotName, dg.X, dg.Y, dg.Corr)
		}
	}
}

func TestAllImplementationsAgree(t *testing.T) {
	// The paper's six implementations execute the same mathematical
	// operators; on identical input they must produce identical
	// displacement arrays — and, per-implementation recorders attached,
	// identical semantic observability counters (the execution-strategy-
	// independent ones; see semanticCounters).
	src := testDataset(t, 3, 4)
	devs := testDevices(2)
	defer closeDevices(devs)
	opts := Options{Threads: 3, Devices: devs}

	counters := func(s Stitcher) (*Result, map[string]int64) {
		rec := obs.New()
		defer rec.Close()
		o := opts
		o.Obs = rec
		res := runStitcher(t, s, src, o)
		cs := map[string]int64{}
		for _, name := range semanticCounters {
			cs[name] = rec.CounterValue(name)
		}
		return res, cs
	}

	ref, refCounters := counters(&SimpleCPU{})
	for _, s := range Implementations() {
		if s.Name() == "simple-cpu" {
			continue
		}
		got, gotCounters := counters(s)
		assertSameDisplacements(t, ref, got, "simple-cpu", s.Name())
		for _, name := range semanticCounters {
			if gotCounters[name] != refCounters[name] {
				t.Errorf("%s: counter %s = %d, simple-cpu = %d",
					s.Name(), name, gotCounters[name], refCounters[name])
			}
		}
	}
}

func TestDisplacementsMatchGroundTruth(t *testing.T) {
	src := testDataset(t, 3, 3)
	res := runStitcher(t, &SimpleCPU{}, src, Options{})
	bad := 0
	for _, p := range src.Grid().Pairs() {
		got, _ := res.PairDisplacement(p)
		want := src.DS.TrueDisplacement(p)
		if abs(got.X-want.X) > 1 || abs(got.Y-want.Y) > 1 {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d/%d pairs off ground truth by more than 1 px", bad, src.Grid().NumPairs())
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestTransformsComputedOncePerTile(t *testing.T) {
	src := testDataset(t, 3, 3)
	devs := testDevices(1)
	defer closeDevices(devs)
	for _, s := range []Stitcher{&SimpleCPU{}, &MTCPU{}, &PipelinedCPU{}, &SimpleGPU{}} {
		res := runStitcher(t, s, src, Options{Threads: 2, Devices: devs})
		if res.TransformsComputed != src.Grid().NumTiles() {
			t.Errorf("%s computed %d transforms, want %d", s.Name(), res.TransformsComputed, src.Grid().NumTiles())
		}
	}
}

func TestFijiRecomputesTransforms(t *testing.T) {
	src := testDataset(t, 3, 3)
	res := runStitcher(t, &Fiji{}, src, Options{Threads: 2})
	want := 2 * src.Grid().NumPairs()
	if res.TransformsComputed != want {
		t.Errorf("fiji computed %d transforms, want %d (2 per pair)", res.TransformsComputed, want)
	}
}

func TestPipelinedGPUMultiDeviceRedundantBoundaryTransforms(t *testing.T) {
	// With 2 devices the boundary row is transformed on both, so the
	// total exceeds NumTiles by exactly the boundary width.
	src := testDataset(t, 4, 3)
	devs := testDevices(2)
	defer closeDevices(devs)
	res := runStitcher(t, &PipelinedGPU{}, src, Options{Threads: 2, Devices: devs})
	want := src.Grid().NumTiles() + src.Grid().Cols
	if res.TransformsComputed != want {
		t.Errorf("computed %d transforms, want %d (one redundant boundary row)", res.TransformsComputed, want)
	}
}

func TestPeakMemoryRespectsTraversal(t *testing.T) {
	// Chained diagonal must keep no more transforms live than row
	// traversal on a wide grid (the paper's motivation for making it
	// the default).
	p := imagegen.DefaultParams(4, 8, 64, 48)
	p.Grid.OverlapX, p.Grid.OverlapY = 0.3, 0.3
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	src := &MemorySource{DS: ds}
	peak := map[Traversal]int{}
	for _, tr := range []Traversal{TraverseChainedDiagonal, TraverseRow} {
		res := runStitcher(t, &SimpleCPU{}, src, Options{Traversal: tr})
		peak[tr] = res.PeakTransformsLive
	}
	if peak[TraverseChainedDiagonal] > peak[TraverseRow] {
		t.Errorf("chained-diagonal peak %d exceeds row peak %d", peak[TraverseChainedDiagonal], peak[TraverseRow])
	}
}

func TestGPUPoolTooSmallFails(t *testing.T) {
	src := testDataset(t, 3, 3)
	devs := testDevices(1)
	defer closeDevices(devs)
	_, err := (&SimpleGPU{}).Run(src, Options{Devices: devs, PoolTransforms: 2})
	if err == nil {
		t.Fatal("pool below the minimum-pool constraint must be rejected")
	}
}

func TestGPUDeviceMemoryTooSmallFails(t *testing.T) {
	src := testDataset(t, 3, 3)
	small := gpu.New(gpu.Config{Name: "tiny", MemWords: 3 * transformWords(128, 96)})
	defer small.Close()
	_, err := (&SimpleGPU{}).Run(src, Options{Devices: []*gpu.Device{small}})
	if err == nil {
		t.Fatal("pool larger than device memory must be rejected")
	}
}

func TestGPURequiredForGPUImpls(t *testing.T) {
	src := testDataset(t, 2, 2)
	if _, err := (&SimpleGPU{}).Run(src, Options{}); err == nil {
		t.Error("simple-gpu without device should fail")
	}
	if _, err := (&PipelinedGPU{}).Run(src, Options{}); err == nil {
		t.Error("pipelined-gpu without device should fail")
	}
}

func TestGPUNPeaksRejected(t *testing.T) {
	src := testDataset(t, 2, 2)
	devs := testDevices(1)
	defer closeDevices(devs)
	if _, err := (&SimpleGPU{}).Run(src, Options{Devices: devs, NPeaks: 2}); err == nil {
		t.Error("NPeaks>1 on GPU should be rejected")
	}
}

func TestByNameAndRegistry(t *testing.T) {
	for _, s := range Implementations() {
		got, err := ByName(s.Name())
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != s.Name() {
			t.Errorf("ByName(%q) = %q", s.Name(), got.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestCensusMatchesPaperFigures(t *testing.T) {
	// The paper's workload: 42×59 grid of 1392×1040 tiles.
	g := tile.Grid{Rows: 42, Cols: 59, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
	c := Census(g)
	// 3nm - n - m = 3·2478 - 42 - 59 = 7333 transforms.
	if got := c.TotalForwardAndInverseFFTs(); got != 7333 {
		t.Errorf("total FFTs = %d, want 7333", got)
	}
	// "a total of 53.5 GB just for the forward transforms"
	gb := float64(c.TransformWorkingSetBytes()) / 1e9
	if gb < 53 || gb > 58 {
		t.Errorf("working set = %.1f GB, paper says ≈53.5–57", gb)
	}
	// pairs row count: 2nm-n-m
	wantPairs := int64(2*42*59 - 42 - 59)
	for _, r := range c.Rows {
		if r.Operation == "NCC (⊗)" && r.Count != wantPairs {
			t.Errorf("NCC count = %d, want %d", r.Count, wantPairs)
		}
	}
	if c.String() == "" {
		t.Error("census renders empty")
	}
}

func TestRefCounter(t *testing.T) {
	g := tile.Grid{Rows: 2, Cols: 2, TileW: 4, TileH: 4}
	rc := newRefCounter(g, g.Pairs())
	// each corner tile of a 2x2 participates in 2 pairs
	for i := 0; i < 4; i++ {
		if rc.remaining(i) != 2 {
			t.Errorf("tile %d count %d, want 2", i, rc.remaining(i))
		}
	}
	free, err := rc.release(0)
	if err != nil || free {
		t.Errorf("first release: free=%v err=%v", free, err)
	}
	free, err = rc.release(0)
	if err != nil || !free {
		t.Errorf("second release: free=%v err=%v", free, err)
	}
	if _, err := rc.release(0); err == nil {
		t.Error("underflow should error")
	}
}

func TestResultHelpers(t *testing.T) {
	g := tile.Grid{Rows: 2, Cols: 2, TileW: 4, TileH: 4}
	r := newResult(g)
	if r.Complete() {
		t.Error("fresh result should be incomplete")
	}
	p := tile.Pair{Coord: tile.Coord{Row: 0, Col: 1}, Dir: tile.West}
	r.setPair(p, tile.Displacement{X: 3, Y: 1, Corr: 0.9})
	d, ok := r.PairDisplacement(p)
	if !ok || d.X != 3 {
		t.Errorf("PairDisplacement = %+v, %v", d, ok)
	}
}

func TestPairOrderIsPermutationOfAllPairs(t *testing.T) {
	// Property: every traversal's pair order contains each grid pair
	// exactly once, and a pair appears only after both tiles were
	// visited.
	grids := []tile.Grid{
		{Rows: 1, Cols: 1, TileW: 4, TileH: 4},
		{Rows: 1, Cols: 7, TileW: 4, TileH: 4},
		{Rows: 5, Cols: 1, TileW: 4, TileH: 4},
		{Rows: 4, Cols: 6, TileW: 4, TileH: 4},
		{Rows: 7, Cols: 3, TileW: 4, TileH: 4},
	}
	for _, g := range grids {
		for _, tr := range Traversals() {
			order := tr.Order(g)
			if len(order) != g.NumTiles() {
				t.Fatalf("%v on %dx%d: %d tiles visited", tr, g.Rows, g.Cols, len(order))
			}
			visited := make([]bool, g.NumTiles())
			for _, c := range order {
				if visited[g.Index(c)] {
					t.Fatalf("%v revisits %v", tr, c)
				}
				visited[g.Index(c)] = true
			}
			pairSeen := map[tile.Pair]bool{}
			visited = make([]bool, g.NumTiles())
			pos := map[tile.Coord]int{}
			for i, c := range order {
				pos[c] = i
			}
			for _, p := range tr.PairOrder(g) {
				if pairSeen[p] {
					t.Fatalf("%v emits pair %v twice", tr, p)
				}
				pairSeen[p] = true
			}
			if len(pairSeen) != g.NumPairs() {
				t.Fatalf("%v on %dx%d: %d pairs, want %d", tr, g.Rows, g.Cols, len(pairSeen), g.NumPairs())
			}
		}
	}
}
