// Package obs is the repo's shared observability layer: lightweight
// hierarchical spans recorded into a lock-cheap ring buffer, named
// counters/gauges/histograms, and exporters for the Chrome trace_event
// format (chrome://tracing, Perfetto), a plain-text summary table, and a
// machine-readable metrics snapshot.
//
// The paper argues from profiler timelines — Figs 4–6 diagnose the
// Simple-GPU stalls and justify the six-stage pipeline by showing
// copy/compute overlap — so every execution path in the repo (the five
// stitcher variants, the GPU simulator, the memory governor, phases 2
// and 3) records into one Recorder and every profile view reads from it.
//
// A nil *Recorder is a valid no-op: every method on a nil Recorder (and
// on the nil Span/Counter/Gauge/Histogram handles it hands out) returns
// immediately, so instrumented code pays one nil check when observability
// is off.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value span attribute (a tile coordinate, a pair, an
// implementation name).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// CompletedSpan is one finished span as stored by the Recorder. Start and
// End are offsets from the Recorder's epoch. Seq is the recorder-assigned
// record order: it is taken under the ring lock at record time, so spans
// recorded sequentially by one goroutine (a stream dispatcher, a pipeline
// stage) carry strictly increasing Seq even when their coarse-clock
// timestamps collide — the tie-breaker every exporter sorts by.
type CompletedSpan struct {
	ID     uint64
	Parent uint64
	Track  string // display row: "run", "stage/read", "GPU0/copy/memcpyH2D"
	Name   string
	Start  time.Duration
	End    time.Duration
	Seq    uint64
	Attrs  []Attr
}

// Duration returns the span length.
func (s CompletedSpan) Duration() time.Duration { return s.End - s.Start }

// defaultRingCap is the ring-buffer capacity in spans. Small runs never
// fill it; a paper-scale run overflows gracefully (oldest spans drop and
// Dropped counts them).
const defaultRingCap = 1 << 15

// Recorder collects spans and metrics for one run (or one long-lived
// process). Span records go through a fixed-capacity ring buffer guarded
// by a short critical section; a background flusher goroutine drains the
// ring into the growable store, keeping allocation off the record path.
// Close stops the flusher after a final drain.
type Recorder struct {
	epoch time.Time

	mu      sync.Mutex
	cond    *sync.Cond
	ring    []CompletedSpan
	head    int // index of the oldest ring entry
	n       int // entries currently in the ring
	seq     uint64
	dropped uint64
	closed  bool

	flushWG sync.WaitGroup

	storeMu sync.Mutex
	store   []CompletedSpan

	metricsMu  sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	ids atomic.Uint64
}

// New creates a Recorder with the default ring capacity and starts its
// flusher.
func New() *Recorder { return NewWithCapacity(defaultRingCap) }

// NewWithCapacity creates a Recorder whose ring holds n spans (minimum 8).
func NewWithCapacity(n int) *Recorder {
	if n < 8 {
		n = 8
	}
	r := &Recorder{
		epoch:      time.Now(),
		ring:       make([]CompletedSpan, n),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
	r.cond = sync.NewCond(&r.mu)
	r.flushWG.Add(1)
	go r.flusher()
	return r
}

// Epoch returns the instant span offsets are measured from. Components
// that timestamp work themselves (the GPU simulator's dispatchers) must
// use the same epoch as the recorder they share.
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// Close drains the ring and stops the flusher goroutine. Idempotent.
// Spans ended after Close are discarded; metrics remain readable.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.flushWG.Wait()
}

// flusher drains the ring into the store until Close.
func (r *Recorder) flusher() {
	defer r.flushWG.Done()
	var batch []CompletedSpan
	for {
		r.mu.Lock()
		for r.n == 0 && !r.closed {
			r.cond.Wait()
		}
		if r.n == 0 && r.closed {
			r.mu.Unlock()
			return
		}
		batch = r.drainLocked(batch[:0])
		// The store lock is taken before the ring lock is let go (order
		// mu → storeMu): a reader that finds the ring empty must find the
		// batch in the store, never in between. Store growth (which may
		// allocate) still happens off the record path, outside the ring
		// lock.
		r.storeMu.Lock()
		r.mu.Unlock()
		r.store = append(r.store, batch...)
		r.storeMu.Unlock()
	}
}

// drainLocked moves every ring entry into dst. Caller holds r.mu.
func (r *Recorder) drainLocked(dst []CompletedSpan) []CompletedSpan {
	for r.n > 0 {
		dst = append(dst, r.ring[r.head])
		r.ring[r.head] = CompletedSpan{} // drop attr references
		r.head = (r.head + 1) % len(r.ring)
		r.n--
	}
	return dst
}

// record appends one completed span to the ring, assigning its Seq under
// the ring lock — the ordering capture point. When the ring is full the
// oldest span is overwritten (and counted in Dropped) rather than
// blocking the recording goroutine.
func (r *Recorder) record(s CompletedSpan) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.seq++
	s.Seq = r.seq
	if r.n == len(r.ring) {
		r.dropped++
		r.ring[r.head] = s
		r.head = (r.head + 1) % len(r.ring)
	} else {
		r.ring[(r.head+r.n)%len(r.ring)] = s
		r.n++
	}
	r.cond.Signal()
	r.mu.Unlock()
}

// Flush synchronously drains the ring into the store so exporters see
// every span recorded so far.
func (r *Recorder) Flush() {
	if r == nil {
		return
	}
	r.mu.Lock()
	batch := r.drainLocked(nil)
	r.storeMu.Lock() // before r.mu goes: see flusher
	r.mu.Unlock()
	r.store = append(r.store, batch...)
	r.storeMu.Unlock()
}

// Dropped reports how many spans were lost to ring overflow.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Spans returns every completed span recorded so far, ordered by record
// sequence. Safe to call while recording continues (a snapshot) and after
// Close.
func (r *Recorder) Spans() []CompletedSpan {
	if r == nil {
		return nil
	}
	r.Flush()
	r.storeMu.Lock()
	out := append([]CompletedSpan(nil), r.store...)
	r.storeMu.Unlock()
	// The flusher and Flush may interleave store appends; restore record
	// order.
	sortSpansBySeq(out)
	return out
}

// RecordComplete records a span whose interval the caller measured itself
// (offsets from Epoch). The GPU simulator's dispatchers use this: they
// time the command, then record it from the stream's single dispatcher
// goroutine, so Seq assignment happens in queue order.
func (r *Recorder) RecordComplete(track, name string, start, end time.Duration, attrs ...Attr) {
	if r == nil {
		return
	}
	r.record(CompletedSpan{
		ID: r.ids.Add(1), Track: track, Name: name,
		Start: start, End: end, Attrs: attrs,
	})
}

// Span is an in-flight span handle. A nil *Span (from a nil Recorder or a
// nil parent) is a valid no-op.
type Span struct {
	r      *Recorder
	id     uint64
	parent uint64
	track  string
	name   string
	start  time.Duration
	ended  atomic.Bool

	attrMu sync.Mutex
	attrs  []Attr
}

// StartSpan opens a root span on the given track.
func (r *Recorder) StartSpan(track, name string, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	return &Span{
		r: r, id: r.ids.Add(1), track: track, name: name,
		start: time.Since(r.epoch), attrs: attrs,
	}
}

// Child opens a span nested under s, on the same track.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := s.r.StartSpan(s.track, name, attrs...)
	c.parent = s.id
	return c
}

// ChildOn opens a span nested under s on a different track (a pipeline
// stage under the run span, for example).
func (s *Span) ChildOn(track, name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := s.r.StartSpan(track, name, attrs...)
	c.parent = s.id
	return c
}

// SetAttr adds or replaces an attribute. Call before End.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.attrMu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == k {
			s.attrs[i].Value = v
			s.attrMu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: k, Value: v})
	s.attrMu.Unlock()
}

// End completes the span and records it. Idempotent.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	s.attrMu.Lock()
	attrs := s.attrs
	s.attrMu.Unlock()
	s.r.record(CompletedSpan{
		ID: s.id, Parent: s.parent, Track: s.track, Name: s.name,
		Start: s.start, End: time.Since(s.r.epoch), Attrs: attrs,
	})
}
