package gpu

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"hybridstitch/internal/obs"
)

// Span is one profiled command execution.
type Span struct {
	Stream string
	Kind   string // memcpyH2D, kernel
	Name   string // H2D, rfft2d, ncc+irfft2d+maxabs, sync
	Start  time.Duration
	End    time.Duration
	// Seq is the record-order sequence assigned by the obs recorder under
	// its ring lock. Dispatchers record in queue order, so per-stream Seq
	// is strictly increasing — the tie-breaker that keeps concurrent
	// streams' events correctly ordered when coarse-clock timestamps
	// collide (timestamps alone were the old out-of-order bug).
	Seq uint64
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Timeline records command executions, the stand-in for the NVIDIA Visual
// Profiler traces in the paper's Figs 7 and 9. It is a device-scoped view
// over an obs.Recorder: each span lands on the track
// "<device>/<stream>/<kind>" (or "<stream>/<kind>" for a private
// recorder), so a recorder shared with the stitch layer carries GPU and
// CPU spans on one clock.
type Timeline struct {
	rec    *obs.Recorder
	own    bool // recorder created by (and closed with) this timeline
	epoch  time.Time
	device string
}

// newOwnTimeline creates a recorder with the given epoch. The timeline
// owns its obs recorder; call Close to release its flusher goroutine.
func newOwnTimeline(epoch time.Time) *Timeline {
	return &Timeline{rec: obs.New(), own: true, epoch: epoch}
}

// newTimeline wraps a shared recorder in a device-scoped view. The caller
// keeps ownership of the recorder.
func newTimeline(rec *obs.Recorder, device string) *Timeline {
	return &Timeline{rec: rec, epoch: rec.Epoch(), device: device}
}

// Close releases the timeline's recorder if it owns one. Idempotent; a
// timeline over a shared recorder leaves it untouched.
func (t *Timeline) Close() {
	if t == nil || !t.own {
		return
	}
	t.rec.Close()
}

// trackOf maps a (stream, kind) pair to its recorder track.
func (t *Timeline) trackOf(stream, kind string) string {
	if t.device == "" {
		return stream + "/" + kind
	}
	return t.device + "/" + stream + "/" + kind
}

// Record appends a span.
func (t *Timeline) Record(s Span) {
	if s.Name == "sync" {
		return // synchronization markers are not profiler-visible work
	}
	t.rec.RecordComplete(t.trackOf(s.Stream, s.Kind), s.Name, s.Start, s.End)
}

// observeOp feeds the per-operation latency histogram ("gpu.op.fft2d",
// "gpu.op.H2D", ...) shared with the rest of the run's metrics.
func (t *Timeline) observeOp(name string, d time.Duration) {
	if t == nil || name == "sync" {
		return
	}
	t.rec.Histogram(obs.HistGPUOpPrefix + name).ObserveDuration(d)
}

// Spans returns a copy of this device's recorded spans ordered by start
// time, with record sequence breaking ties so each stream's events appear
// in dispatch order.
func (t *Timeline) Spans() []Span {
	prefix := ""
	if t.device != "" {
		prefix = t.device + "/"
	}
	var out []Span
	for _, cs := range t.rec.Spans() {
		if !strings.HasPrefix(cs.Track, prefix) {
			continue
		}
		rest := cs.Track[len(prefix):]
		i := strings.LastIndex(rest, "/")
		if i < 0 {
			continue // not a stream/kind track (e.g. a stitch-layer span)
		}
		out = append(out, Span{
			Stream: rest[:i], Kind: rest[i+1:], Name: cs.Name,
			Start: cs.Start, End: cs.End, Seq: cs.Seq,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Utilization reports, for each command kind, the fraction of the window
// [from, to) during which at least one command of that kind was
// executing. The paper's core diagnosis reads directly off this number:
// Simple-GPU shows sparse kernel rows with gaps; Pipelined-GPU shows a
// dense kernel row.
func (t *Timeline) Utilization(kind string, from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	for _, s := range t.Spans() {
		if s.Kind != kind || s.End <= from || s.Start >= to {
			continue
		}
		st, en := s.Start, s.End
		if st < from {
			st = from
		}
		if en > to {
			en = to
		}
		edges = append(edges, edge{st, +1}, edge{en, -1})
	}
	if len(edges) == 0 {
		return 0
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta > edges[j].delta
	})
	var busy time.Duration
	depth := 0
	var last time.Duration
	for _, e := range edges {
		if depth > 0 {
			busy += e.at - last
		}
		depth += e.delta
		last = e.at
	}
	return float64(busy) / float64(to-from)
}

// GapCount reports how many inter-span gaps longer than threshold occur
// in the given kind's row — the "gaps between kernel invocations" the
// paper's Fig 7 profile exposes.
func (t *Timeline) GapCount(kind string, threshold time.Duration) int {
	var spans []Span
	for _, s := range t.Spans() {
		if s.Kind == kind {
			spans = append(spans, s)
		}
	}
	gaps := 0
	for i := 1; i < len(spans); i++ {
		if spans[i].Start-spans[i-1].End > threshold {
			gaps++
		}
	}
	return gaps
}

// Render draws an ASCII timeline: one row per (stream, kind), time
// bucketed into width columns. It is the textual analogue of the
// profiler screenshots.
func (t *Timeline) Render(width int) string {
	return obs.RenderTracks(t.completedSpans(), width)
}

// WriteTrace serializes the timeline as Chrome Trace Event JSON. Each
// (stream, kind) pair becomes a named thread row under one process per
// device.
func (t *Timeline) WriteTrace(w io.Writer, deviceName string) error {
	return obs.EncodeChromeTrace(w, t.completedSpans(), map[string]string{"device": deviceName})
}

// completedSpans converts this device's spans to obs form with
// "stream/kind" tracks (device prefix dropped: the exporter names the
// device in metadata instead).
func (t *Timeline) completedSpans() []obs.CompletedSpan {
	spans := t.Spans()
	out := make([]obs.CompletedSpan, len(spans))
	for i, s := range spans {
		out[i] = obs.CompletedSpan{
			ID: uint64(i + 1), Seq: s.Seq,
			Track: fmt.Sprintf("%s/%s", s.Stream, s.Kind),
			Name:  s.Name, Start: s.Start, End: s.End,
		}
	}
	return out
}
