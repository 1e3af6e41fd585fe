package stitch

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/gpu"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/tile"
)

// TestFFTVariantsProduceSameDisplacements: the real layout, and either
// layout at a padded transform size, find the baseline's displacements.
func TestFFTVariantsProduceSameDisplacements(t *testing.T) {
	src := testDataset(t, 3, 3)
	base := runStitcher(t, &SimpleCPU{}, src, Options{})
	padded := paddedPlanner(t, src.Grid())
	for _, opts := range []Options{{FFTVariant: VariantReal}, {Planner: padded}, {FFTVariant: VariantReal, Planner: padded}} {
		got := runStitcher(t, &SimpleCPU{}, src, opts)
		for _, p := range src.Grid().Pairs() {
			d1, _ := base.PairDisplacement(p)
			d2, _ := got.PairDisplacement(p)
			if d1.X != d2.X || d1.Y != d2.Y {
				t.Errorf("variant %q at %dx%d pair %v: (%d,%d) vs baseline (%d,%d)", opts.FFTVariant, got.TransformW, got.TransformH, p, d2.X, d2.Y, d1.X, d1.Y)
			}
		}
	}
}

func TestFFTVariantsAcrossImplementations(t *testing.T) {
	src := testDataset(t, 2, 3)
	for _, impl := range []Stitcher{&MTCPU{}, &PipelinedCPU{}} {
		for _, opts := range []Options{{FFTVariant: VariantReal}, {Planner: paddedPlanner(t, src.Grid())}} {
			opts.Threads = 2
			res := runStitcher(t, impl, src, opts)
			if !res.Complete() {
				t.Errorf("%s/%s at %dx%d incomplete", impl.Name(), opts.FFTVariant, res.TransformW, res.TransformH)
			}
		}
	}
}

func TestUnknownVariantRejected(t *testing.T) {
	src := testDataset(t, 2, 2)
	for _, v := range []FFTVariant{"banana", "padded"} {
		if _, err := (&SimpleCPU{}).Run(src, Options{FFTVariant: v}); err == nil {
			t.Errorf("unknown variant %q should fail", v)
		}
	}
}

// TestGPUVariantSupport: the GPU pair runs the real layout at the exact
// and at a padded transform size, and its device footprint is the pool
// and nothing else — the real layout's fused displacement kernel writes
// no device buffer — at ph·(pw/2+1) words per transform.
func TestGPUVariantSupport(t *testing.T) {
	src := testDataset(t, 2, 2)
	g := src.Grid()
	for _, impl := range []Stitcher{&SimpleGPU{}, &PipelinedGPU{}} {
		for _, planner := range []*fft.Planner{nil, paddedPlanner(t, g)} {
			devs := testDevices(1)
			res, err := impl.Run(src, Options{Devices: devs, FFTVariant: VariantReal, Planner: planner})
			if err != nil {
				t.Fatalf("%s real variant: %v", impl.Name(), err)
			}
			if !res.Complete() {
				t.Errorf("%s real variant incomplete", impl.Name())
			}
			pw, ph := g.TileW, g.TileH
			if planner != nil {
				if pw, ph = planner.TransformSize(pw, ph, true); pw == g.TileW {
					t.Fatalf("padded planner kept the tile size")
				}
			}
			want := int64(Options{}.withDefaults(g).PoolTransforms) * int64(ph) * int64(pw/2+1)
			if _, peak, _, _ := devs[0].MemStats(); peak != want {
				t.Errorf("%s real variant at %dx%d: device peak %d words, want the pool's %d", impl.Name(), pw, ph, peak, want)
			}
			closeDevices(devs)
		}
	}
}

// failingSource injects a read error on the Nth read.
type failingSource struct {
	inner  Source
	failAt int64
	reads  int64
}

func (f *failingSource) Grid() tile.Grid { return f.inner.Grid() }

func (f *failingSource) ReadTile(c tile.Coord) (*tile.Gray16, error) {
	n := atomic.AddInt64(&f.reads, 1)
	if n == f.failAt {
		return nil, errors.New("injected read failure")
	}
	return f.inner.ReadTile(c)
}

// TestReadFailurePropagatesWithoutHanging: every implementation must
// return the injected error (not deadlock, not panic) whichever read
// fails — the pipeline-teardown path.
func TestReadFailurePropagatesWithoutHanging(t *testing.T) {
	src := testDataset(t, 3, 3)
	devs := testDevices(2)
	defer closeDevices(devs)
	for _, impl := range Implementations() {
		for _, failAt := range []int64{1, 5, 9} {
			fs := &failingSource{inner: src, failAt: failAt}
			_, err := impl.Run(fs, Options{Threads: 3, Devices: devs})
			if err == nil {
				t.Errorf("%s failAt=%d: error was swallowed", impl.Name(), failAt)
				continue
			}
			if !containsInjected(err) {
				t.Errorf("%s failAt=%d: unexpected error %v", impl.Name(), failAt, err)
			}
		}
	}
}

func containsInjected(err error) bool {
	return err != nil && (contains(err.Error(), "injected read failure"))
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestReadFailureLateInPipelinedGPU exercises teardown when the failure
// arrives after the pipeline has ramped (buffers in flight, pool
// partially drained).
func TestReadFailureLateInPipelinedGPU(t *testing.T) {
	src := testDataset(t, 4, 4)
	devs := testDevices(1)
	defer closeDevices(devs)
	fs := &failingSource{inner: src, failAt: 14}
	if _, err := (&PipelinedGPU{}).Run(fs, Options{Threads: 2, Devices: devs}); err == nil {
		t.Fatal("late failure swallowed")
	}
	// The device must not leak pool memory after teardown.
	used, _, _, _ := devs[0].MemStats()
	if used != 0 {
		t.Errorf("device leaks %d words after failed run", used)
	}
}

// TestRepeatedRunsDoNotLeakDeviceMemory runs the GPU implementations
// several times on the same devices.
func TestRepeatedRunsDoNotLeakDeviceMemory(t *testing.T) {
	src := testDataset(t, 3, 3)
	devs := testDevices(1)
	defer closeDevices(devs)
	for i := 0; i < 3; i++ {
		for _, impl := range []Stitcher{&SimpleGPU{}, &PipelinedGPU{}} {
			if _, err := impl.Run(src, Options{Threads: 2, Devices: devs}); err != nil {
				t.Fatalf("run %d %s: %v", i, impl.Name(), err)
			}
		}
	}
	used, _, _, _ := devs[0].MemStats()
	if used != 0 {
		t.Errorf("device holds %d words after clean runs", used)
	}
}

// badGridSource reports a grid that fails validation.
type badGridSource struct{ Source }

func (badGridSource) Grid() tile.Grid { return tile.Grid{} }

func TestInvalidGridRejectedEverywhere(t *testing.T) {
	src := testDataset(t, 2, 2)
	bad := badGridSource{src}
	devs := testDevices(1)
	defer closeDevices(devs)
	for _, impl := range Implementations() {
		if _, err := impl.Run(bad, Options{Devices: devs}); err == nil {
			t.Errorf("%s accepted an invalid grid", impl.Name())
		}
	}
}

func TestVariantBenchmarksShape(t *testing.T) {
	// Not a timing assertion (host noise), just that all variants finish
	// and report sane metrics on a larger grid.
	src := testDataset(t, 3, 4)
	for _, opts := range []Options{{}, {Planner: paddedPlanner(t, src.Grid())}, {FFTVariant: VariantReal}} {
		opts.Threads = 2
		res := runStitcher(t, &PipelinedCPU{}, src, opts)
		if res.TransformsComputed != src.Grid().NumTiles() {
			t.Errorf("variant %q at %dx%d computed %d transforms", opts.FFTVariant, res.TransformW, res.TransformH, res.TransformsComputed)
		}
		if res.Elapsed <= 0 {
			t.Errorf("variant %q at %dx%d reported no elapsed time", opts.FFTVariant, res.TransformW, res.TransformH)
		}
	}
}

func ExampleSimpleCPU() {
	p := testParams(2, 2)
	src, err := exampleSource(p)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := (&SimpleCPU{}).Run(src, Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Complete(), res.TransformsComputed)
	// Output: true 4
}

// testParams and exampleSource support the runnable example.
func testParams(rows, cols int) imagegen.Params {
	return imagegen.DefaultParams(rows, cols, 128, 96)
}

func exampleSource(p imagegen.Params) (*MemorySource, error) {
	ds, err := imagegen.Generate(p)
	if err != nil {
		return nil, err
	}
	return &MemorySource{DS: ds}, nil
}

func TestHyperQPipelinedGPU(t *testing.T) {
	// Kepler-class device + multiple FFT-issuing streams (the paper's
	// §VI.A future work) must produce identical results.
	src := testDataset(t, 3, 3)
	kepler := gpu.New(gpu.KeplerConfig("K20"))
	defer kepler.Close()
	base := runStitcher(t, &SimpleCPU{}, src, Options{})
	res := runStitcher(t, &PipelinedGPU{}, src, Options{
		Threads: 2, Devices: []*gpu.Device{kepler}, FFTStreams: 4})
	assertSameDisplacements(t, base, res, "simple-cpu", "pipelined-gpu/hyperq")
	if res.TransformsComputed != src.Grid().NumTiles() {
		t.Errorf("hyperq computed %d transforms", res.TransformsComputed)
	}
}

func TestResultSerializationRoundTrip(t *testing.T) {
	src := testDataset(t, 3, 3)
	res := runStitcher(t, &SimpleCPU{}, src, Options{})
	blob, err := MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDisplacements(t, res, back, "original", "round-tripped")
	if back.Grid != res.Grid {
		t.Errorf("grid changed: %+v vs %+v", back.Grid, res.Grid)
	}
}

func TestResultSaveLoadFile(t *testing.T) {
	src := testDataset(t, 2, 2)
	res := runStitcher(t, &SimpleCPU{}, src, Options{})
	path := t.TempDir() + "/disp.json"
	if err := SaveResult(path, res); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Complete() {
		t.Error("loaded result incomplete")
	}
	if _, err := LoadResult(path + ".missing"); err == nil {
		t.Error("missing file should fail")
	}
}

func TestResultUnmarshalErrors(t *testing.T) {
	cases := map[string]string{
		"not json":     "{",
		"bad grid":     `{"rows":0}`,
		"bad dir":      `{"rows":2,"cols":2,"tile_w":4,"tile_h":4,"pairs":[{"row":0,"col":1,"dir":"up","x":1,"y":1,"corr":0.5}]}`,
		"outside grid": `{"rows":2,"cols":2,"tile_w":4,"tile_h":4,"pairs":[{"row":5,"col":1,"dir":"west","x":1,"y":1,"corr":0.5}]}`,
	}
	for name, blob := range cases {
		if _, err := UnmarshalResult([]byte(blob)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestPerSocketPipelineMatchesSingle(t *testing.T) {
	// The paper's per-socket future work: 2 socket pipelines over row
	// bands must produce the single pipeline's exact displacements,
	// with one redundant boundary row of transforms.
	src := testDataset(t, 4, 3)
	single := runStitcher(t, &PipelinedCPU{}, src, Options{Threads: 2})
	socketed := runStitcher(t, &PipelinedCPU{}, src, Options{Threads: 2, Sockets: 2})
	assertSameDisplacements(t, single, socketed, "single", "per-socket")
	want := src.Grid().NumTiles() + src.Grid().Cols
	if socketed.TransformsComputed != want {
		t.Errorf("socketed computed %d transforms, want %d (one redundant boundary row)",
			socketed.TransformsComputed, want)
	}
}

func TestPerSocketClampToRows(t *testing.T) {
	src := testDataset(t, 2, 3)
	res := runStitcher(t, &PipelinedCPU{}, src, Options{Threads: 2, Sockets: 8})
	if !res.Complete() {
		t.Error("over-socketed run incomplete")
	}
}

func TestPerSocketErrorPropagates(t *testing.T) {
	src := testDataset(t, 4, 3)
	fs := &failingSource{inner: src, failAt: 7}
	if _, err := (&PipelinedCPU{}).Run(fs, Options{Threads: 2, Sockets: 2}); err == nil {
		t.Error("socketed run swallowed the error")
	}
}

func TestSeriesRunnerAcrossScans(t *testing.T) {
	p := imagegen.DefaultParams(3, 3, 96, 64)
	scans, err := imagegen.GenerateTimeSeries(imagegen.SeriesParams{Params: p, Scans: 3})
	if err != nil {
		t.Fatal(err)
	}
	sr := NewSeriesRunner(&PipelinedCPU{}, Options{Threads: 2})
	for i, ds := range scans {
		res, err := sr.RunScan(&MemorySource{DS: ds})
		if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		if !res.Complete() {
			t.Fatalf("scan %d incomplete", i)
		}
	}
	if sr.Scans() != 3 || len(sr.Elapsed()) != 3 {
		t.Errorf("scans = %d, elapsed = %d", sr.Scans(), len(sr.Elapsed()))
	}
	if !sr.WithinPeriod(time.Minute) {
		t.Error("scans should fit a one-minute period at this scale")
	}
	if sr.WithinPeriod(time.Nanosecond) {
		t.Error("nanosecond period cannot hold")
	}
}

func TestSeriesRunnerRejectsGeometryChange(t *testing.T) {
	sr := NewSeriesRunner(&SimpleCPU{}, Options{})
	a := testDataset(t, 2, 2)
	if _, err := sr.RunScan(a); err != nil {
		t.Fatal(err)
	}
	b := testDataset(t, 2, 3)
	if _, err := sr.RunScan(b); err == nil {
		t.Error("geometry change should be rejected")
	}
}

func TestSeriesRunnerEmptyPeriodCheck(t *testing.T) {
	sr := NewSeriesRunner(&SimpleCPU{}, Options{})
	if sr.WithinPeriod(time.Hour) {
		t.Error("no scans yet: WithinPeriod must be false")
	}
}

func TestQueueStatsReported(t *testing.T) {
	src := testDataset(t, 3, 3)
	devs := testDevices(1)
	defer closeDevices(devs)
	cpu := runStitcher(t, &PipelinedCPU{}, src, Options{Threads: 2})
	if len(cpu.QueueStats) == 0 {
		t.Error("pipelined-cpu reported no queue stats")
	}
	gpuRes := runStitcher(t, &PipelinedGPU{}, src, Options{Threads: 2, Devices: devs})
	if len(gpuRes.QueueStats) < 5 {
		t.Errorf("pipelined-gpu reported %d queue stats", len(gpuRes.QueueStats))
	}
	for _, qs := range append(cpu.QueueStats, gpuRes.QueueStats...) {
		if qs.MaxDepth > qs.Cap {
			t.Errorf("queue %s: depth %d exceeded cap %d", qs.Name, qs.MaxDepth, qs.Cap)
		}
		if qs.Pushes < 0 {
			t.Errorf("queue %s: negative pushes", qs.Name)
		}
	}
}
