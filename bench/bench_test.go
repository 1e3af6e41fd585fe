package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// contract mirrors ../BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesTables pins the names, units, directions and bounds
// in BENCHMARK.json to the tables the program reports from.
func TestContractMatchesTables(t *testing.T) {
	c := loadContract(t)
	for _, scale := range []string{"full", "smoke"} {
		specs, err := workloads(scale)
		if err != nil {
			t.Fatal(err)
		}
		if len(specs) != len(c.Workloads) {
			t.Fatalf("%s: %d workloads, BENCHMARK.json has %d", scale, len(specs), len(c.Workloads))
		}
		for i, s := range specs {
			if s.Name != c.Workloads[i].Name || s.Why != c.Workloads[i].Why {
				t.Errorf("%s workload %d is %q (%q), BENCHMARK.json has %q (%q)",
					scale, i, s.Name, s.Why, c.Workloads[i].Name, c.Workloads[i].Why)
			}
			if !nameRE.MatchString(s.Name) || len(s.Why) > 200 {
				t.Errorf("workload %q: bad name or a why over 200 characters", s.Name)
			}
		}
	}
	check := func(kind string, defs []metricDef, listed []contractMetric) {
		if len(defs) != len(listed) {
			t.Fatalf("%s: %d metrics in metrics.go, %d in BENCHMARK.json", kind, len(defs), len(listed))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			if got := (contractMetric{d.Name, d.Unit, d.Better, d.Bound}); got != listed[i] {
				t.Errorf("%s metric %d: metrics.go has %+v, BENCHMARK.json has %+v", kind, i, got, listed[i])
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end-to-end", endToEnd, c.EndToEnd)
	check("per-layer", perLayer, c.PerLayer)
}

// TestSmokeWorkloads runs all four workloads at smoke sizes, untraced
// and traced, and checks what they emit against the metric tables.
func TestSmokeWorkloads(t *testing.T) {
	specs, err := workloads("smoke")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			name, want := s.Name+"/untraced", endToEnd
			if traced {
				name, want = s.Name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				rep, err := runWorkload(s, 1, 0, traced, out)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct %v, %d of %d operations failed", rep.Correct, rep.Failed, rep.Attempted)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(rep.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := rep.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s not emitted", d.Name)
					} else if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v %s, want a finite number of %s", d.Name, m.Value, m.Unit, d.Unit)
					}
				}
				if !traced {
					for _, d := range endToEnd {
						if rep.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want above 0", d.Name, rep.Metrics[d.Name].Value)
						}
					}
					return
				}
				// attributed + bench.unattributed_s = wall
				var sum float64
				for _, v := range rep.Layers {
					sum += v
				}
				if math.Abs(sum-rep.LayerWall) > 1e-6 {
					t.Errorf("layer rows add up to %.9f s, span wall time is %.9f s", sum, rep.LayerWall)
				}
				if got := rep.Metrics["bench.unattributed_s"].Value; got != rep.Layers[layerBench] {
					t.Errorf("bench.unattributed_s = %v, layer table says %v", got, rep.Layers[layerBench])
				}
				if _, err := os.Stat(out + "/trace-" + s.Name + ".json"); err != nil {
					t.Errorf("trace file: %v", err)
				}
			})
		}
	}
}

func TestLayerTableSplitsConcurrentSpansOnce(t *testing.T) {
	tr := newTracer()
	// Hand-built spans: a 10 ms root, a 6 ms child, and inside it two
	// overlapping grandchildren of another layer covering 1–4 ms and 2–5 ms.
	tr.spans = []span{
		{Parent: -1, Layer: layerBench, Name: "root", Start: 0, End: 10e6},
		{Parent: 0, Layer: layerStitch, Name: "phase1", Start: 0, End: 6e6},
		{Parent: 1, Layer: layerTiffio, Name: "decode", Start: 1e6, End: 4e6},
		{Parent: 1, Layer: layerTiffio, Name: "decode", Start: 2e6, End: 5e6},
	}
	rows, wall := tr.layerTable()
	if wall != 10e6 || rows[layerBench] != 4e6 || rows[layerStitch] != 2e6 || rows[layerTiffio] != 4e6 {
		t.Errorf("wall %v rows %v, want 10ms split bench 4ms, stitch 2ms, tiffio 4ms", wall, rows)
	}
	if busy, n := tr.busy(1, "decode"); busy != 6e6 || n != 2 {
		t.Errorf("busy %v over %d spans, want 6ms over 2", busy, n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}
