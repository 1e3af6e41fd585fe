package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// snapshot is the result file of an all-workload run: where and how it
// was measured, and per workload and metric the value of every run with
// its summary.
type snapshot struct {
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Scale      string  `json:"scale"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`

	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// EndToEnd summarizes the untraced runs, one value per run; PerLayer
	// holds the single traced run.
	EndToEnd map[string]*metricResult `json:"end_to_end"`
	PerLayer map[string]value         `json:"per_layer,omitempty"`
	Layers   map[string]float64       `json:"layers_s,omitempty"`
}

type metricResult struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	stats
	// RepsPerRun is how many in-run samples each value is the median of.
	RepsPerRun int `json:"reps_per_run"`
}

type allOptions struct {
	seed     int64
	seconds  float64
	runs     int
	traced   bool
	scale    string
	out      string
	snapshot string
}

// runAll runs every workload in a child process of its own, runs times
// untraced (run i with seed+i) and once traced if asked, prints the
// summary and writes the snapshot. It reports whether every run was
// correct.
func runAll(specs []spec, o allOptions) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	snap := &snapshot{
		Date: time.Now().UTC().Format(time.RFC3339), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(), Commit: commit(),
		Scale: o.scale, Seed: o.seed, Seconds: o.seconds, Runs: o.runs,
		Workloads: map[string]*workloadResult{},
	}
	ok := true
	child := func(s spec, seed int64, trace int) (*report, error) {
		cmd := exec.Command(self, "-workload", s.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(trace), "-scale", o.scale, "-out", o.out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		rep, perr := parseDetail(stdout)
		if perr != nil {
			return nil, fmt.Errorf("%s: %v (%v)", s.Name, perr, err)
		}
		return rep, nil
	}
	for _, s := range specs {
		wr := &workloadResult{EndToEnd: map[string]*metricResult{}}
		snap.Workloads[s.Name] = wr
		for i := 0; i < o.runs; i++ {
			rep, err := child(s, o.seed+int64(i), 0)
			if err != nil {
				return false, err
			}
			ok = ok && rep.Correct
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
			for name, m := range rep.Metrics {
				mr := wr.EndToEnd[name]
				if mr == nil {
					mr = &metricResult{Unit: m.Unit, RepsPerRun: rep.Samples[name].N}
					wr.EndToEnd[name] = mr
				}
				mr.Values = append(mr.Values, m.Value)
				mr.stats = summarize(mr.Values)
			}
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d done\n", s.Name, i+1, o.runs)
		}
		if o.traced {
			rep, err := child(s, o.seed, 1)
			if err != nil {
				return false, err
			}
			ok = ok && rep.Correct
			wr.PerLayer, wr.Layers = rep.Metrics, rep.Layers
		}
	}
	printSnapshot(os.Stdout, specs, snap)
	if err := os.MkdirAll(filepath.Dir(o.snapshot), 0o755); err != nil {
		return false, err
	}
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return false, err
	}
	return ok, os.WriteFile(o.snapshot, append(blob, '\n'), 0o644)
}

// parseDetail finds the "detail {...}" line a child prints before its
// result line.
func parseDetail(stdout []byte) (*report, error) {
	for _, line := range bytes.Split(stdout, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("detail ")); ok {
			rep := &report{}
			if err := json.Unmarshal(rest, rep); err != nil {
				return nil, err
			}
			return rep, nil
		}
	}
	return nil, fmt.Errorf("the run printed no result")
}

func printSnapshot(w io.Writer, specs []spec, snap *snapshot) {
	fmt.Fprintf(w, "%s, GOMAXPROCS %d of %d CPUs (%s), commit %s, seed %d, %d runs of %g s\n",
		snap.GoVersion, snap.GOMAXPROCS, snap.NumCPU, snap.CPUModel, snap.Commit, snap.Seed, snap.Runs, snap.Seconds)
	for _, s := range specs {
		wr := snap.Workloads[s.Name]
		fmt.Fprintf(w, "\n%s: %d operations, %d failed\n", s.Name, wr.Attempted, wr.Failed)
		fmt.Fprintf(w, "  %-24s %-6s %3s %12s %12s %12s %8s\n", "metric", "unit", "n", "min", "median", "max", "IQR/med")
		for _, d := range endToEnd {
			if m := wr.EndToEnd[d.Name]; m != nil {
				fmt.Fprintf(w, "  %-24s %-6s %3d %12.6g %12.6g %12.6g %7.2f%%\n",
					d.Name, m.Unit, m.N, m.Min, m.Median, m.Max, 100*m.IQR/m.Median)
			}
		}
		for _, d := range perLayer {
			if m, ok := wr.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
}

// compareSnapshots prints, for every workload and end-to-end metric in
// both files, how far the new median is on the worse side of the old one
// against the metric's bound, and the new runs' own spread. It reports
// whether every metric is inside its bound.
func compareSnapshots(w io.Writer, oldPath, newPath string) (bool, error) {
	load := func(path string) (*snapshot, error) {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		s := &snapshot{}
		return s, json.Unmarshal(blob, s)
	}
	oldSnap, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newSnap, err := load(newPath)
	if err != nil {
		return false, err
	}
	specs, err := workloads("full")
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-22s %12s %12s %8s %7s %8s\n", "workload", "metric", "old median", "new median", "worse by", "bound", "spread")
	for _, s := range specs {
		ow, nw := oldSnap.Workloads[s.Name], newSnap.Workloads[s.Name]
		if ow == nil || nw == nil {
			continue
		}
		for _, d := range endToEnd {
			om, nm := ow.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			if om == nil || nm == nil {
				continue
			}
			worse := (nm.Median - om.Median) / om.Median
			if d.Better == "higher" {
				worse = -worse
			}
			spread := nm.IQR / nm.Median
			verdict := ""
			if worse > d.Bound {
				verdict, ok = "  OUTSIDE BOUND", false
			} else if spread > d.Bound && d.Name != "setup_s" {
				verdict, ok = "  SPREAD ABOVE BOUND", false
			}
			fmt.Fprintf(w, "%-14s %-22s %12.6g %12.6g %+7.2f%% %6.1f%% %7.2f%%%s\n",
				s.Name, d.Name, om.Median, nm.Median, 100*worse, 100*d.Bound, 100*spread, verdict)
		}
	}
	return ok, nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// commit is the revision the go tool stamped into the binary, with
// "+dirty" for a modified tree; "unknown" outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
