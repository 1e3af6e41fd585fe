package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer is the benchmark's own span recorder: name, layer, start, end
// and the span that caused it, kept in memory and written as Chrome
// trace JSON when the run ends. It wraps calls into the program from
// the outside; the program's own obs.Recorder is read separately. A nil
// tracer records nothing, which is how the untraced runs are measured.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// span is one recorded interval. Parent is the index of the causing
// span, -1 for a root.
type span struct {
	Parent     int
	Layer      string
	Name       string
	Start, End time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Parent: parent, Layer: layer, Name: name, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// busy sums the durations of the spans called name under parent: time
// spent, added over goroutines, not wall time covered.
func (t *tracer) busy(parent int, name string) (total time.Duration, count int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Parent == parent && s.Name == name && s.End >= 0 {
			total += s.End - s.Start
			count++
		}
	}
	return total, count
}

// layerBench is the layer of root spans: time inside a root that no
// child covers belongs to the benchmark, and is reported as unattributed.
const layerBench = "bench"

// layerTable splits the wall time of every root span among layers. Each
// instant belongs to the deepest span open at it, so concurrent children
// (tile reads on several workers) count once and the rows add up to the
// roots' wall time exactly; the layerBench row is what no child covers.
func (t *tracer) layerTable() (rows map[string]time.Duration, wall time.Duration) {
	rows = map[string]time.Duration{}
	if t == nil {
		return rows, 0
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	depth := make([]int, len(spans))
	type event struct {
		at   time.Duration
		id   int
		open bool
	}
	var events []event
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		if s.Parent >= 0 {
			depth[i] = depth[s.Parent] + 1
		} else {
			wall += s.End - s.Start
		}
		events = append(events, event{s.Start, i, true}, event{s.End, i, false})
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].at < events[b].at })

	open := map[int]bool{}
	var last time.Duration
	for _, e := range events {
		if len(open) > 0 && e.at > last {
			deepest := -1
			for id := range open {
				if deepest < 0 || depth[id] > depth[deepest] || (depth[id] == depth[deepest] && id < deepest) {
					deepest = id
				}
			}
			rows[spans[deepest].Layer] += e.at - last
		}
		last = e.at
		if e.open {
			open[e.id] = true
		} else {
			delete(open, e.id)
		}
	}
	return rows, wall
}

// writeChromeTrace writes the spans in the Chrome trace_event format, one
// process per layer. Spans of a layer that overlap in time get separate
// thread rows so viewers draw them side by side.
func (t *tracer) writeChromeTrace(path string) error {
	type traceEvent struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	order := make([]int, 0, len(spans))
	for i, s := range spans {
		if s.End >= 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })

	pids := map[string]int{}
	laneEnds := map[string][]time.Duration{}
	events := make([]traceEvent, 0, len(order))
	for _, i := range order {
		s := spans[i]
		if _, ok := pids[s.Layer]; !ok {
			pids[s.Layer] = len(pids) + 1
			events = append(events, traceEvent{Name: "process_name", Ph: "M", PID: pids[s.Layer],
				Args: map[string]any{"name": s.Layer}})
		}
		lanes := laneEnds[s.Layer]
		lane := 0
		for lane < len(lanes) && lanes[lane] > s.Start {
			lane++
		}
		if lane == len(lanes) {
			lanes = append(lanes, 0)
		}
		lanes[lane] = s.End
		laneEnds[s.Layer] = lanes
		events = append(events, traceEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: pids[s.Layer], TID: lane,
			Args: map[string]any{"id": i, "parent": s.Parent},
		})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
