package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// GaugeValue is a gauge's exported state.
type GaugeValue struct {
	Last float64 `json:"last"`
	Max  float64 `json:"max"`
}

// HistogramValue is a histogram's exported aggregate.
type HistogramValue struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Mean returns the average observation, or 0 with no observations.
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// BenchEntry is one Go benchmark result as the committed BENCH_pr*.json
// records hold it.
type BenchEntry struct {
	NsPerOp float64            `json:"ns_per_op"`
	Iters   int64              `json:"iters,omitempty"`
	Extra   map[string]float64 `json:"extra,omitempty"` // e.g. "B/op", "allocs/op", "MB/s"
}

// Snapshot is the machine-readable metrics export: what -metrics-out
// writes, and the format of the committed BENCH_pr*.json records.
type Snapshot struct {
	Label      string                    `json:"label,omitempty"`
	Date       string                    `json:"date,omitempty"`
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]GaugeValue     `json:"gauges,omitempty"`
	Histograms map[string]HistogramValue `json:"histograms,omitempty"`
	Benchmarks map[string]BenchEntry     `json:"benchmarks,omitempty"`
}

// Snapshot exports every metric's current value.
func (r *Recorder) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]GaugeValue{},
		Histograms: map[string]HistogramValue{},
	}
	if r == nil {
		return snap
	}
	r.metricsMu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	r.metricsMu.Unlock()
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		last, max := g.Value()
		snap.Gauges[k] = GaugeValue{Last: last, Max: max}
	}
	for k, h := range hists {
		count, sum, min, max := h.Stats()
		snap.Histograms[k] = HistogramValue{Count: count, Sum: sum, Min: min, Max: max}
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteSnapshotFile writes the snapshot to path.
func WriteSnapshotFile(path string, s Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadSnapshot reads a snapshot written by WriteJSON.
func LoadSnapshot(path string) (Snapshot, error) {
	var s Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("obs: parsing snapshot %s: %w", path, err)
	}
	return s, nil
}

// Summary renders the plain-text metrics table: counters, gauges,
// histograms, and a per-(track,name) span rollup.
func (r *Recorder) Summary() string {
	if r == nil {
		return ""
	}
	var sb strings.Builder
	snap := r.Snapshot()

	if len(snap.Counters) > 0 {
		sb.WriteString("counters:\n")
		for _, k := range sortedKeys(snap.Counters) {
			fmt.Fprintf(&sb, "  %-36s %12d\n", k, snap.Counters[k])
		}
	}
	if len(snap.Gauges) > 0 {
		sb.WriteString("gauges:\n")
		for _, k := range sortedKeys(snap.Gauges) {
			g := snap.Gauges[k]
			fmt.Fprintf(&sb, "  %-36s last=%-12g max=%g\n", k, g.Last, g.Max)
		}
	}
	if len(snap.Histograms) > 0 {
		sb.WriteString("histograms (seconds):\n")
		for _, k := range sortedKeys(snap.Histograms) {
			h := snap.Histograms[k]
			fmt.Fprintf(&sb, "  %-36s n=%-8d mean=%.6f min=%.6f max=%.6f\n",
				k, h.Count, h.Mean(), h.Min, h.Max)
		}
	}

	type rollup struct {
		count int
		total float64
	}
	spans := r.Spans()
	agg := map[string]*rollup{}
	for _, s := range spans {
		key := s.Track + " " + s.Name
		ru := agg[key]
		if ru == nil {
			ru = &rollup{}
			agg[key] = ru
		}
		ru.count++
		ru.total += s.Duration().Seconds()
	}
	if len(agg) > 0 {
		sb.WriteString("spans (track name · count · total seconds):\n")
		for _, k := range sortedKeys(agg) {
			ru := agg[k]
			fmt.Fprintf(&sb, "  %-36s n=%-8d total=%.6f\n", k, ru.count, ru.total)
		}
	}
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(&sb, "spans dropped to ring overflow: %d\n", d)
	}
	return sb.String()
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
