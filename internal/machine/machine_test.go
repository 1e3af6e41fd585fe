package machine

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"hybridstitch/internal/tile"
)

// paperGrid is the evaluation workload: 42×59 grid of 1392×1040 tiles.
func paperGrid() tile.Grid {
	return tile.Grid{Rows: 42, Cols: 59, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
}

// within asserts got is within frac of want.
func within(t *testing.T, name string, got, want, frac float64) {
	t.Helper()
	if math.Abs(got-want) > frac*want {
		t.Errorf("%s: model %.1f s, paper %.1f s (tolerance ±%.0f%%)", name, got, want, frac*100)
	}
}

func predict(t *testing.T, spec RunSpec) float64 {
	t.Helper()
	s, err := Predict(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSimEngineBasics(t *testing.T) {
	s := NewSim()
	var order []int
	s.After(2, func() { order = append(order, 2) })
	s.After(1, func() { order = append(order, 1) })
	s.At(1, func() { order = append(order, 10) }) // same time: FIFO by insertion
	end := s.Run()
	if end != 2 {
		t.Errorf("clock = %g", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 10 || order[2] != 2 {
		t.Errorf("order = %v", order)
	}
}

func TestModelSerialStation(t *testing.T) {
	m := NewModel()
	r := NewResource(m.Sim, "r", 1)
	for i := 0; i < 5; i++ {
		m.AddTask(&Task{Name: "t", Dur: 2, Res: r})
	}
	mk, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 10 {
		t.Errorf("makespan = %g, want 10", mk)
	}
	if r.Utilization() != 10 {
		t.Errorf("busy time = %g", r.Utilization())
	}
}

func TestModelParallelStation(t *testing.T) {
	m := NewModel()
	r := NewResource(m.Sim, "r", 4)
	for i := 0; i < 8; i++ {
		m.AddTask(&Task{Name: "t", Dur: 3, Res: r})
	}
	mk, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 6 {
		t.Errorf("makespan = %g, want 6", mk)
	}
}

func TestModelDependencies(t *testing.T) {
	m := NewModel()
	r := NewResource(m.Sim, "r", 4)
	a := m.AddTask(&Task{Name: "a", Dur: 5, Res: r})
	b := m.AddTask(&Task{Name: "b", Dur: 1, Res: r}, a)
	c := m.AddTask(&Task{Name: "c", Dur: 1, Res: r}, a, b)
	mk, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 7 {
		t.Errorf("makespan = %g, want 7", mk)
	}
	if b.Finish() != 6 || c.Finish() != 7 {
		t.Errorf("finishes %g, %g", b.Finish(), c.Finish())
	}
}

func TestModelMakespanBoundsProperty(t *testing.T) {
	// Independent tasks on a k-server: makespan is bounded below by
	// total/k and by the longest task, and above by total/k + longest.
	f := func(durs []uint8, capSel uint8) bool {
		if len(durs) == 0 {
			return true
		}
		k := int(capSel)%6 + 1
		m := NewModel()
		r := NewResource(m.Sim, "r", k)
		var total, longest float64
		for _, d := range durs {
			dur := float64(d%50) + 1
			total += dur
			if dur > longest {
				longest = dur
			}
			m.AddTask(&Task{Name: "t", Dur: dur, Res: r})
		}
		mk, err := m.Run()
		if err != nil {
			return false
		}
		lower := total / float64(k)
		if longest > lower {
			lower = longest
		}
		return mk >= lower-1e-9 && mk <= total/float64(k)+longest+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestTableII checks every row of the paper's Table II against the model
// (±15%: the model is calibrated on a subset of these numbers and must
// reproduce the rest).
func TestTableII(t *testing.T) {
	g := paperGrid()
	within(t, "Fiji", predict(t, RunSpec{Impl: "fiji", Grid: g}), 3.6*3600, 0.15)
	within(t, "Simple-CPU", predict(t, RunSpec{Impl: "simple-cpu", Grid: g}), 10.6*60, 0.15)
	within(t, "MT-CPU", predict(t, RunSpec{Impl: "mt-cpu", Grid: g, Threads: 16}), 96, 0.15)
	within(t, "Pipelined-CPU", predict(t, RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: 16}), 84, 0.15)
	within(t, "Simple-GPU", predict(t, RunSpec{Impl: "simple-gpu", Grid: g, GPUs: 1}), 558, 0.15)
	within(t, "Pipelined-GPU(1)", predict(t, RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: 1}), 49.7, 0.15)
	within(t, "Pipelined-GPU(2)", predict(t, RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: 2}), 26.6, 0.15)
}

// TestTableIIOrdering: who wins must match the paper exactly.
func TestTableIIOrdering(t *testing.T) {
	g := paperGrid()
	times := []float64{
		predict(t, RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: 2}),
		predict(t, RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: 1}),
		predict(t, RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: 16}),
		predict(t, RunSpec{Impl: "mt-cpu", Grid: g, Threads: 16}),
		predict(t, RunSpec{Impl: "simple-gpu", Grid: g, GPUs: 1}),
		predict(t, RunSpec{Impl: "simple-cpu", Grid: g}),
		predict(t, RunSpec{Impl: "fiji", Grid: g}),
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Errorf("ordering violated at position %d: %.1f then %.1f", i, times[i-1], times[i])
		}
	}
	// Headline ratios: ~11.2x pipelined-over-simple GPU; >2 orders of
	// magnitude vs Fiji.
	if r := times[4] / times[1]; r < 9 || r > 13 {
		t.Errorf("Pipelined/Simple GPU speedup = %.1fx, paper says 11.2x", r)
	}
	if r := times[6] / times[0]; r < 300 {
		t.Errorf("Fiji/Pipelined-GPU(2) = %.0fx, paper says 487x", r)
	}
}

// TestFig11Knee: near-linear scaling to 8 threads, a distinctly flatter
// slope from 9 to 16.
func TestFig11Knee(t *testing.T) {
	g := paperGrid()
	sp := func(threads int) float64 {
		t1 := predict(t, RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: 1})
		tn := predict(t, RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: threads})
		return t1 / tn
	}
	s2, s4, s8, s16 := sp(2), sp(4), sp(8), sp(16)
	if s2 < 1.6 || s4 < 3.2 || s8 < 6.0 {
		t.Errorf("sub-linear below the knee: %.2f %.2f %.2f", s2, s4, s8)
	}
	slopeLow := (s8 - s2) / 6
	slopeHigh := (s16 - s8) / 8
	if slopeHigh > slopeLow/2 {
		t.Errorf("no knee: slope %.3f below vs %.3f above 8 threads", slopeLow, slopeHigh)
	}
	if s16 <= s8 {
		t.Errorf("hyper-threading should still help: s8=%.2f s16=%.2f", s8, s16)
	}
}

// TestFig10CCFThreads: with 2 GPUs, adding CCF threads beyond 2 has
// minimal impact (GPU-bound).
func TestFig10CCFThreads(t *testing.T) {
	g := paperGrid()
	run := func(ccf int) float64 {
		return predict(t, RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, CCFThreads: ccf, GPUs: 2})
	}
	t1, t2, t4, t16 := run(1), run(2), run(4), run(16)
	if t2 >= t1 {
		t.Errorf("2 CCF threads (%.1f) should beat 1 (%.1f)", t2, t1)
	}
	if math.Abs(t4-t2) > 0.1*t2 || math.Abs(t16-t2) > 0.1*t2 {
		t.Errorf("beyond 2 CCF threads should be flat: %.1f %.1f %.1f", t2, t4, t16)
	}
	// Paper's Fig 10 spans roughly 42 s (1 thread) down to ~28 s.
	within(t, "Fig10 ccf=1", t1, 42, 0.2)
	within(t, "Fig10 ccf=16", t16, 28, 0.2)
}

// TestFig5Cliff: speedup collapses between 832 and 864 tiles on the
// 24 GB host, across thread counts.
func TestFig5Cliff(t *testing.T) {
	grid := func(tiles int) tile.Grid {
		return tile.Grid{Rows: tiles / 32, Cols: 32, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
	}
	host := Fig5Host()
	costs := PaperCosts()
	for _, threads := range []int{4, 8, 16} {
		before, err := FFTWorkloadSpeedup(grid(832), host, costs, threads)
		if err != nil {
			t.Fatal(err)
		}
		after, err := FFTWorkloadSpeedup(grid(864), host, costs, threads)
		if err != nil {
			t.Fatal(err)
		}
		if before < 0.8*float64(minInt(threads, 8)) {
			t.Errorf("T=%d: pre-cliff speedup %.2f too low", threads, before)
		}
		if after > before/2 {
			t.Errorf("T=%d: no cliff: %.2f → %.2f", threads, before, after)
		}
	}
	// Below the limit nothing happens between consecutive sizes.
	s768, _ := FFTWorkloadSpeedup(grid(768), host, costs, 16)
	s832, _ := FFTWorkloadSpeedup(grid(832), host, costs, 16)
	if math.Abs(s768-s832) > 0.2 {
		t.Errorf("speedup drifts below the cliff: %.2f vs %.2f", s768, s832)
	}
}

// TestLaptopValidation reproduces §VI's 3-year-old-laptop check.
func TestLaptopValidation(t *testing.T) {
	g := paperGrid()
	lap := LaptopHost()
	gpu := predict(t, RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 8, CCFThreads: 8, GPUs: 1, Host: lap})
	cpu := predict(t, RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: 8, Host: lap})
	within(t, "laptop Pipelined-GPU", gpu, 130, 0.15)
	within(t, "laptop Pipelined-CPU", cpu, 146, 0.15)
	if gpu >= cpu {
		t.Error("laptop GPU should still edge out CPU")
	}
}

// TestFig12SurfaceShape: speedup grows with threads at every grid size
// and is consistent across sizes (the paper's flat-by-tiles surface).
func TestFig12SurfaceShape(t *testing.T) {
	costs := PaperCosts()
	host := PaperHost()
	for _, tiles := range []int{128, 512, 1024} {
		g := tile.Grid{Rows: tiles / 16, Cols: 16, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
		var prev float64
		for _, threads := range []int{1, 4, 8, 16} {
			tm, err := Predict(RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: threads, Host: host, Costs: costs})
			if err != nil {
				t.Fatal(err)
			}
			if prev > 0 && tm >= prev {
				t.Errorf("tiles=%d: no gain from %d threads", tiles, threads)
			}
			prev = tm
		}
	}
	// Consistency across sizes: 8-thread speedup within 10% between
	// 128 and 1024 tiles.
	sp := func(tiles int) float64 {
		g := tile.Grid{Rows: tiles / 16, Cols: 16, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
		t1, _ := Predict(RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: 1})
		t8, _ := Predict(RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: 8})
		return t1 / t8
	}
	if a, b := sp(128), sp(1024); math.Abs(a-b) > 0.1*b {
		t.Errorf("speedup not consistent across sizes: %.2f vs %.2f", a, b)
	}
}

func TestPredictErrors(t *testing.T) {
	if _, err := Predict(RunSpec{Impl: "bogus", Grid: paperGrid()}); err == nil {
		t.Error("unknown impl should fail")
	}
	if _, err := Predict(RunSpec{Impl: "simple-cpu"}); err == nil {
		t.Error("invalid grid should fail")
	}
	noGPU := PaperHost()
	noGPU.GPUs = 0
	if _, err := Predict(RunSpec{Impl: "pipelined-gpu", Grid: paperGrid(), Host: noGPU}); err == nil {
		t.Error("pipelined-gpu on a host without GPUs should fail")
	}
}

func TestCostScaling(t *testing.T) {
	c := PaperCosts()
	small := tile.Grid{Rows: 2, Cols: 2, TileW: 696, TileH: 520, OverlapX: 0.1, OverlapY: 0.1}
	sc := c.For(small)
	// Quarter the pixels: linear ops scale 4x down, FFT slightly more
	// than 4x (N log N).
	if r := c.Read / sc.Read; math.Abs(r-4) > 1e-9 {
		t.Errorf("read scale %g", r)
	}
	if r := c.FFTCPU / sc.FFTCPU; r < 4 || r > 5 {
		t.Errorf("fft scale %g", r)
	}
	// Paper size maps to itself.
	id := c.For(paperGrid())
	if id.FFTCPU != c.FFTCPU || id.Read != c.Read {
		t.Error("identity scaling broken")
	}
}

func TestCPUSlowdown(t *testing.T) {
	h := PaperHost()
	if s := cpuSlowdown(h, 1); s != 1 {
		t.Errorf("slowdown(1) = %g", s)
	}
	// Monotone non-decreasing in threads.
	prev := 0.0
	for _, threads := range []int{2, 4, 8, 12, 16} {
		s := cpuSlowdown(h, threads)
		if s < prev {
			t.Errorf("slowdown not monotone at %d threads", threads)
		}
		prev = s
	}
	// Throughput (T/slowdown) still increases past the knee.
	if 16/cpuSlowdown(h, 16) <= 8/cpuSlowdown(h, 8) {
		t.Error("HT should add some throughput")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestPredictWithStatsBottleneck(t *testing.T) {
	g := paperGrid()
	// With 2 GPUs the disk's busy time approaches the makespan — the
	// reason the second card yields 1.87x rather than 2x.
	mk, stats, err := PredictWithStats(RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var disk float64
	for _, s := range stats {
		if s.Name == "disk" {
			disk = s.BusySeconds
		}
	}
	if disk == 0 {
		t.Fatal("no disk stat reported")
	}
	if disk < 0.85*mk {
		t.Errorf("disk busy %.1f s of %.1f s makespan: expected near-saturation at 2 GPUs", disk, mk)
	}
}

func TestHyperQKernelSlots(t *testing.T) {
	// More kernel slots can only help, and with enough of them the GPU
	// stops being the bottleneck (paper §VI.A: Kepler's Hyper-Q).
	g := paperGrid()
	t1 := predict(t, RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: 1, KernelSlots: 1})
	t4 := predict(t, RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: 1, KernelSlots: 4})
	if t4 > t1+1e-9 {
		t.Errorf("more kernel slots slowed the run: %.1f -> %.1f", t1, t4)
	}
	if t4 > 0.85*t1 {
		t.Errorf("Hyper-Q gave only %.1f -> %.1f; expected a substantial win on a kernel-bound run", t1, t4)
	}
}

func TestMultiGPUScalingSaturates(t *testing.T) {
	// On a hypothetical 4-GPU host the disk saturates: the 4th card
	// buys almost nothing (the paper's >2-GPU future-work concern).
	g := paperGrid()
	host := PaperHost()
	host.GPUs = 4
	times := map[int]float64{}
	for _, n := range []int{1, 2, 4} {
		times[n] = predict(t, RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, GPUs: n, Host: host})
	}
	if times[2] >= times[1] {
		t.Errorf("second GPU should help: %v", times)
	}
	// Past disk saturation the extra cards buy nothing — and can even
	// regress slightly, because each extra partition re-reads one
	// boundary row through the saturated disk.
	if times[4] < 0.95*times[2] {
		t.Errorf("4 GPUs gained %.1f%% over 2; expected saturation", 100*(times[2]/times[4]-1))
	}
	if times[4] > 1.1*times[2] {
		t.Errorf("4 GPUs regressed too much: %v", times)
	}
}

func TestSocketsModelHelpsDespiteRedundancy(t *testing.T) {
	g := paperGrid()
	one := predict(t, RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: 16})
	two := predict(t, RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: 16, Sockets: 2})
	if two >= one {
		t.Errorf("per-socket pipelines should net out positive: %.1f vs %.1f", two, one)
	}
	// The gain is the contention relief minus one boundary row of work —
	// modest, not a 2x.
	if two < 0.7*one {
		t.Errorf("per-socket gain implausibly large: %.1f vs %.1f", two, one)
	}
}

func TestPredictWithTrace(t *testing.T) {
	g := tile.Grid{Rows: 4, Cols: 4, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
	mk, spans, err := PredictWithTrace(RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 8, GPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	// Every span inside [0, makespan]; per-resource spans must not
	// overlap beyond the resource capacity (spot check capacity-1
	// resources: disk, kernel).
	perRes := map[string][]TraceSpan{}
	for _, s := range spans {
		if s.Start < 0 || s.End > mk+1e-9 || s.End < s.Start {
			t.Fatalf("span out of range: %+v (makespan %g)", s, mk)
		}
		perRes[s.Resource] = append(perRes[s.Resource], s)
	}
	for _, res := range []string{"disk", "gpu0-kernel"} {
		ss := perRes[res]
		if len(ss) == 0 {
			t.Fatalf("no spans on %s", res)
		}
		sortSpans(ss)
		for i := 1; i < len(ss); i++ {
			if ss[i].Start < ss[i-1].End-1e-9 {
				t.Fatalf("%s overlaps: %+v then %+v", res, ss[i-1], ss[i])
			}
		}
	}
}

func sortSpans(ss []TraceSpan) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].Start < ss[j-1].Start; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

func TestWriteModelTrace(t *testing.T) {
	g := tile.Grid{Rows: 3, Cols: 3, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
	_, spans, err := PredictWithTrace(RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, spans, "test"); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if _, ok := parsed["traceEvents"]; !ok {
		t.Error("missing traceEvents")
	}
}

func TestPredictWithStatsAllImplementations(t *testing.T) {
	g := tile.Grid{Rows: 4, Cols: 4, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
	for _, impl := range []string{"fiji", "simple-cpu", "mt-cpu", "pipelined-cpu", "simple-gpu", "pipelined-gpu"} {
		mk, stats, err := PredictWithStats(RunSpec{Impl: impl, Grid: g, Threads: 4, GPUs: 1})
		if err != nil {
			t.Fatalf("%s: %v", impl, err)
		}
		if mk <= 0 {
			t.Errorf("%s: makespan %g", impl, mk)
		}
		if len(stats) == 0 {
			t.Errorf("%s: no resource stats", impl)
		}
		for _, s := range stats {
			if s.BusySeconds < 0 || s.BusySeconds > mk*64 {
				t.Errorf("%s/%s: busy %g vs makespan %g", impl, s.Name, s.BusySeconds, mk)
			}
		}
	}
}

func TestHostSpeedScaling(t *testing.T) {
	g := paperGrid()
	fast := PaperHost()
	fast.CPUSpeed = 2
	base := predict(t, RunSpec{Impl: "simple-cpu", Grid: g})
	quick2 := predict(t, RunSpec{Impl: "simple-cpu", Grid: g, Host: fast})
	// A 2x CPU roughly halves the compute-dominated sequential run.
	if quick2 > 0.6*base || quick2 < 0.4*base {
		t.Errorf("2x CPU gave %.1f vs %.1f", quick2, base)
	}
}
