package machine

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hybridstitch/internal/tile"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/predict_golden.txt from the current model")

// implNames are the six schedules the model predicts.
var implNames = []string{"fiji", "simple-cpu", "mt-cpu", "pipelined-cpu", "simple-gpu", "pipelined-gpu"}

// goldenCase is one RunSpec shape a caller of the model builds; the pin
// runs it under every implementation.
type goldenCase struct {
	name string
	spec RunSpec
}

// goldenCases lists the RunSpec shapes that internal/report's
// experiments, the root bench_test.go and bench/layers.go hand the
// model, plus a Sockets > Rows split.
func goldenCases() []goldenCase {
	paper := paperGrid()
	var cs []goldenCase
	add := func(name string, s RunSpec) { cs = append(cs, goldenCase{name, s}) }

	// table2 (and the bottleneck report and BenchmarkTable2Model).
	for _, s := range []RunSpec{
		{Threads: 5}, {Threads: 1}, {Threads: 16}, {Threads: 1, GPUs: 1},
		{Threads: 16, GPUs: 1}, {Threads: 16, GPUs: 2},
	} {
		s.Grid = paper
		add(fmt.Sprintf("table2/T%d-G%d", s.Threads, s.GPUs), s)
	}
	for th := 1; th <= 16; th++ {
		add(fmt.Sprintf("fig10/ccf%d", th), RunSpec{Grid: paper, Threads: 16, CCFThreads: th, GPUs: 2})
		add(fmt.Sprintf("fig11/T%d", th), RunSpec{Grid: paper, Threads: th})
	}
	for _, tiles := range []int{128, 256, 384, 512, 640, 768, 896, 1024} {
		g := tile.Grid{Rows: tiles / 16, Cols: 16, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
		for _, th := range []int{1, 2, 4, 6, 8, 10, 12, 14, 16} {
			add(fmt.Sprintf("fig12/%d-T%d", tiles, th), RunSpec{Grid: g, Threads: th})
		}
	}
	add("laptop/gpu", RunSpec{Grid: paper, Threads: 8, CCFThreads: 8, GPUs: 1, Host: LaptopHost()})
	add("laptop/cpu", RunSpec{Grid: paper, Threads: 8, Host: LaptopHost()})
	for _, gpus := range []int{1, 2} {
		add(fmt.Sprintf("ablation-ccf/G%d-gpu", gpus), RunSpec{Grid: paper, Threads: 16, GPUs: gpus, CCFOnGPU: true})
		for _, slots := range []int{1, 2, 4, 16} {
			add(fmt.Sprintf("ablation-hyperq/G%d-slots%d", gpus, slots),
				RunSpec{Grid: paper, Threads: 16, GPUs: gpus, KernelSlots: slots})
		}
	}
	for _, sockets := range []int{1, 2} {
		add(fmt.Sprintf("ablation-sockets/S%d", sockets), RunSpec{Grid: paper, Threads: 16, Sockets: sockets})
	}
	perturb := []struct {
		name  string
		apply func(*CostModel, float64)
	}{
		{"Read", func(c *CostModel, f float64) { c.Read *= f }},
		{"FFTCPU", func(c *CostModel, f float64) { c.FFTCPU *= f }},
		{"FFTGPU", func(c *CostModel, f float64) { c.FFTGPU *= f }},
		{"NCCGPU+MaxGPU", func(c *CostModel, f float64) { c.NCCGPU *= f; c.MaxGPU *= f }},
		{"CCF", func(c *CostModel, f float64) { c.CCF *= f }},
		{"SyncOverhead", func(c *CostModel, f float64) { c.SyncOverhead *= f }},
		{"H2D", func(c *CostModel, f float64) { c.H2D *= f }},
	}
	for _, pt := range perturb {
		for _, f := range []float64{0.75, 1.25} {
			costs := PaperCosts()
			pt.apply(&costs, f)
			for _, s := range []RunSpec{
				{Threads: 16, GPUs: 2}, {Threads: 16, GPUs: 1}, {Threads: 16}, {GPUs: 1}, {},
			} {
				s.Grid, s.Costs = paper, costs
				add(fmt.Sprintf("sensitivity/%s-x%g/T%d-G%d", pt.name, f, s.Threads, s.GPUs), s)
			}
		}
	}
	for _, gr := range [][2]int{{18, 22}, {42, 59}, {70, 72}, {100, 100}} {
		g := tile.Grid{Rows: gr[0], Cols: gr[1], TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
		add(fmt.Sprintf("scale/%dx%d-cpu", gr[0], gr[1]), RunSpec{Grid: g, Threads: 16})
		add(fmt.Sprintf("scale/%dx%d-gpu2", gr[0], gr[1]), RunSpec{Grid: g, Threads: 16, GPUs: 2})
	}

	// bench/layers.go: costs measured on the bench host, a host whose
	// threads are all physical and uncontended.
	measured := PaperCosts()
	measured.Read, measured.FFTCPU, measured.CCF, measured.NCCCPU, measured.MaxCPU = 0.0123, 0.0456, 0.0031, 0.0078, 0
	for _, pl := range []tile.Grid{
		{Rows: 32, Cols: 32, TileW: 256, TileH: 192, OverlapX: 0.1, OverlapY: 0.1},
		{Rows: 4, Cols: 4, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1},
	} {
		for _, th := range []int{2, 8} {
			add(fmt.Sprintf("layers/%dx%d-T%d", pl.Rows, pl.Cols, th), RunSpec{
				Grid: pl, Costs: measured, Threads: th,
				Host: HostConfig{PhysicalCores: th, LogicalCores: th, HTEfficiency: 1, MemContention: 1,
					RAMBytes: 1 << 40, UsableRAMBytes: 1 << 40, GPUs: 1, CPUSpeed: 1, GPUSpeed: 1},
			})
		}
	}

	// More sockets than rows: the split has one band per row.
	small := tile.Grid{Rows: 3, Cols: 4, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
	add("sockets-over-rows/3x4-S4", RunSpec{Grid: small, Threads: 4, Sockets: 4})
	return cs
}

// goldenLine renders one prediction as a line of the golden file: the
// key, the makespan, then name=busy/maxqueue per station, with floats in
// the shortest form that parses back to the same float64.
func goldenLine(key string, mk float64, stats []ResourceStat) string {
	var sb strings.Builder
	sb.WriteString(key + " " + strconv.FormatFloat(mk, 'g', -1, 64))
	for _, s := range stats {
		fmt.Fprintf(&sb, " %s=%s/%d", s.Name, strconv.FormatFloat(s.BusySeconds, 'g', -1, 64), s.MaxQueue)
	}
	return sb.String()
}

// parseGoldenLine inverts goldenLine.
func parseGoldenLine(line string) (mk float64, stats []ResourceStat, err error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return 0, nil, fmt.Errorf("short golden line %q", line)
	}
	if mk, err = strconv.ParseFloat(f[1], 64); err != nil {
		return 0, nil, err
	}
	for _, st := range f[2:] {
		name, rest, ok1 := strings.Cut(st, "=")
		busy, q, ok2 := strings.Cut(rest, "/")
		if !ok1 || !ok2 {
			return 0, nil, fmt.Errorf("bad station %q in %q", st, line)
		}
		s := ResourceStat{Name: name}
		if s.BusySeconds, err = strconv.ParseFloat(busy, 64); err != nil {
			return 0, nil, err
		}
		if s.MaxQueue, err = strconv.Atoi(q); err != nil {
			return 0, nil, err
		}
		stats = append(stats, s)
	}
	return mk, stats, nil
}

// TestPredictGolden pins PredictWithStats exactly — makespan and every
// station's busy time and deepest queue, compared with == — for every
// RunSpec shape above under all six implementations, so a change to how
// the task graphs are built cannot move a modelled figure unnoticed.
// Regenerate with go test ./internal/machine -run TestPredictGolden -update.
func TestPredictGolden(t *testing.T) {
	path := filepath.Join("testdata", "predict_golden.txt")
	var want map[string]string
	if !*updateGolden {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		want = map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			key, _, _ := strings.Cut(line, " ")
			want[key] = line
		}
	}
	var lines []string
	for _, c := range goldenCases() {
		for _, impl := range implNames {
			spec := c.spec
			spec.Impl = impl
			mk, stats, err := PredictWithStats(spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, impl, err)
			}
			key := c.name + "/" + impl
			lines = append(lines, goldenLine(key, mk, stats))
			if *updateGolden {
				continue
			}
			w, ok := want[key]
			if !ok {
				t.Errorf("%s: not in the golden file", key)
				continue
			}
			delete(want, key)
			wmk, wstats, err := parseGoldenLine(w)
			if err != nil {
				t.Fatal(err)
			}
			if mk != wmk {
				t.Errorf("%s: makespan %v, pinned %v", key, mk, wmk)
			}
			if len(stats) != len(wstats) {
				t.Errorf("%s: stations %v, pinned %v", key, stats, wstats)
				continue
			}
			for i := range stats {
				if stats[i] != wstats[i] {
					t.Errorf("%s: station %+v, pinned %+v", key, stats[i], wstats[i])
				}
			}
		}
	}
	for key := range want {
		t.Errorf("%s: pinned but no longer predicted", key)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
