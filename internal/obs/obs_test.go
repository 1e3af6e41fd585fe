package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanHierarchyAndSeq(t *testing.T) {
	r := New()
	defer r.Close()

	root := r.StartSpan("run", "stitch", String("impl", "simple-cpu"))
	read := root.Child("read", String("tile", "r000_c000"))
	read.End()
	fft := root.Child("fft", String("tile", "r000_c000"))
	fft.SetAttr("plan", "fwd")
	fft.End()
	root.End()

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq <= spans[i-1].Seq {
			t.Fatalf("Seq not strictly increasing: %d then %d", spans[i-1].Seq, spans[i].Seq)
		}
	}
	// Children end before the root, so the root is recorded last.
	last := spans[len(spans)-1]
	if last.Name != "stitch" || last.Parent != 0 {
		t.Fatalf("last recorded span = %q parent=%d, want root stitch", last.Name, last.Parent)
	}
	for _, s := range spans[:2] {
		if s.Parent != last.ID {
			t.Errorf("span %q parent = %d, want %d", s.Name, s.Parent, last.ID)
		}
	}
	var found bool
	for _, a := range spans[1].Attrs {
		if a.Key == "plan" && a.Value == "fwd" {
			found = true
		}
	}
	if !found {
		t.Errorf("SetAttr(plan=fwd) not recorded: %v", spans[1].Attrs)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	sp := r.StartSpan("run", "noop")
	sp.SetAttr("k", "v")
	child := sp.Child("child")
	child.ChildOn("other", "grandchild").End()
	child.End()
	sp.End()
	r.RecordComplete("t", "n", 0, time.Millisecond)
	r.Counter("c").Add(1)
	r.Gauge("g").Set(3)
	r.Histogram("h").ObserveDuration(time.Millisecond)
	if got := r.CounterValue("c"); got != 0 {
		t.Fatalf("nil recorder counter = %d", got)
	}
	if got := len(r.Spans()); got != 0 {
		t.Fatalf("nil recorder spans = %d", got)
	}
	r.Flush()
	r.Close()
	if s := r.Summary(); s != "" {
		t.Fatalf("nil recorder summary = %q", s)
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	r := NewWithCapacity(8)
	// Hold the flusher off by flooding from one goroutine faster than it
	// can drain is not deterministic; instead record after Close is not
	// possible either. Record enough spans that the ring must wrap at
	// least once even with an eager flusher by blocking drain: we can't
	// block it, so just assert total conservation instead.
	const total = 10000
	for i := 0; i < total; i++ {
		r.RecordComplete("t", "s", 0, time.Microsecond)
	}
	r.Close()
	spans := r.Spans()
	if got := uint64(len(spans)) + r.Dropped(); got != total {
		t.Fatalf("stored(%d) + dropped(%d) = %d, want %d", len(spans), r.Dropped(), got, total)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq <= spans[i-1].Seq {
			t.Fatalf("Seq order violated after overflow at %d", i)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New()
	defer r.Close()
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			track := fmt.Sprintf("worker%d", w)
			for i := 0; i < per; i++ {
				sp := r.StartSpan(track, "op")
				r.Counter("ops").Add(1)
				r.Gauge("depth").Set(float64(i))
				r.Histogram("lat").Observe(1e-5)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if got := r.CounterValue("ops"); got != workers*per {
		t.Fatalf("ops counter = %d, want %d", got, workers*per)
	}
	spans := r.Spans()
	if len(spans) != workers*per {
		t.Fatalf("got %d spans, want %d", len(spans), workers*per)
	}
	// Per-track Seq must be increasing: each worker records its own spans
	// sequentially.
	lastSeq := map[string]uint64{}
	for _, s := range spans {
		if s.Seq <= lastSeq[s.Track] {
			t.Fatalf("track %s: Seq %d after %d", s.Track, s.Seq, lastSeq[s.Track])
		}
		lastSeq[s.Track] = s.Seq
	}
}

func TestCloseIdempotentAndStopsRecording(t *testing.T) {
	r := New()
	r.RecordComplete("t", "before", 0, time.Microsecond)
	r.Close()
	r.Close()
	r.RecordComplete("t", "after", 0, time.Microsecond)
	spans := r.Spans()
	if len(spans) != 1 || spans[0].Name != "before" {
		t.Fatalf("spans after Close = %+v, want just 'before'", spans)
	}
}

func TestMetrics(t *testing.T) {
	r := New()
	defer r.Close()
	c := r.Counter("hits")
	c.Add(3)
	r.Counter("hits").Add(2)
	if got := r.CounterValue("hits"); got != 5 {
		t.Fatalf("hits = %d, want 5", got)
	}
	if got := r.CounterValue("never"); got != 0 {
		t.Fatalf("unset counter = %d", got)
	}
	g := r.Gauge("depth")
	g.Set(4)
	g.Set(9)
	g.Set(2)
	last, max := g.Value()
	if last != 2 || max != 9 {
		t.Fatalf("gauge = (%g, %g), want (2, 9)", last, max)
	}
	h := r.Histogram("lat")
	h.Observe(0.001)
	h.Observe(0.004)
	h.ObserveDuration(2 * time.Millisecond)
	count, sum, min, max2 := h.Stats()
	if count != 3 || min != 0.001 || max2 != 0.004 {
		t.Fatalf("hist stats = (%d, %g, %g, %g)", count, sum, min, max2)
	}
	if sum < 0.0069 || sum > 0.0071 {
		t.Fatalf("hist sum = %g, want ~0.007", sum)
	}
}

func TestHistBucketMonotone(t *testing.T) {
	prev := -1
	for _, v := range []float64{0, 1e-7, 1e-6, 1e-5, 1e-3, 0.1, 1, 10, 100} {
		b := histBucket(v)
		if b < 0 || b >= histBuckets {
			t.Fatalf("histBucket(%g) = %d out of range", v, b)
		}
		if b < prev {
			t.Fatalf("histBucket not monotone at %g: %d < %d", v, b, prev)
		}
		prev = b
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := New()
	defer r.Close()
	r.Counter("pairs.aligned").Add(17)
	r.Gauge("queue.depth").Set(3)
	r.Histogram("fft.seconds").Observe(0.01)
	snap := r.Snapshot()
	snap.Label = "test"
	snap.Date = "2026-08-05"
	snap.Benchmarks = map[string]BenchEntry{
		"BenchmarkFFT": {NsPerOp: 1234, Iters: 100, Extra: map[string]float64{"B/op": 16}},
	}

	path := filepath.Join(t.TempDir(), "snap.json")
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters["pairs.aligned"] != 17 {
		t.Errorf("counter lost: %+v", got.Counters)
	}
	if got.Gauges["queue.depth"].Max != 3 {
		t.Errorf("gauge lost: %+v", got.Gauges)
	}
	if got.Histograms["fft.seconds"].Count != 1 {
		t.Errorf("histogram lost: %+v", got.Histograms)
	}
	if got.Benchmarks["BenchmarkFFT"].NsPerOp != 1234 || got.Benchmarks["BenchmarkFFT"].Extra["B/op"] != 16 {
		t.Errorf("benchmarks lost: %+v", got.Benchmarks)
	}
}

func TestSummaryMentionsEverything(t *testing.T) {
	r := New()
	defer r.Close()
	r.Counter("tiles.read").Add(4)
	r.Gauge("pool.in_use").Set(2)
	r.Histogram("read.seconds").Observe(0.002)
	sp := r.StartSpan("run", "stitch")
	sp.End()
	s := r.Summary()
	for _, want := range []string{"tiles.read", "pool.in_use", "read.seconds", "run stitch"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	r := New()
	defer r.Close()
	root := r.StartSpan("run", "stitch", String("impl", "mt-cpu"))
	time.Sleep(time.Millisecond)
	root.Child("read", String("tile", "r000_c001")).End()
	root.End()

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, map[string]string{"device": "none"}); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("trace output is not valid JSON")
	}
	spans, err := DecodeChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("decoded %d spans, want 2", len(spans))
	}
	byName := map[string]CompletedSpan{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	read, ok := byName["read"]
	if !ok || read.Track != "run" {
		t.Fatalf("read span lost or wrong track: %+v", spans)
	}
	if len(read.Attrs) != 1 || read.Attrs[0] != (Attr{Key: "tile", Value: "r000_c001"}) {
		t.Fatalf("read attrs = %+v", read.Attrs)
	}
	if read.End < read.Start {
		t.Fatalf("span interval inverted: %+v", read)
	}
}

func TestRenderTracks(t *testing.T) {
	spans := []CompletedSpan{
		{ID: 1, Seq: 1, Track: "copy", Name: "H2D", Start: 0, End: 5 * time.Millisecond},
		{ID: 2, Seq: 2, Track: "fft", Name: "fft2d", Start: 4 * time.Millisecond, End: 9 * time.Millisecond},
	}
	out := RenderTracks(spans, 40)
	if !strings.Contains(out, "copy") || !strings.Contains(out, "fft") || !strings.Contains(out, "#") {
		t.Fatalf("render missing rows:\n%s", out)
	}
	if RenderTracks(nil, 40) != "(empty timeline)\n" {
		t.Fatal("empty render wrong")
	}
}

func TestCanonicalTreeDeterministic(t *testing.T) {
	// Two runs recording the same logical work in different orders must
	// produce identical trees.
	build := func(order []int) string {
		r := New()
		defer r.Close()
		root := r.StartSpan("run", "stitch", String("impl", "x"))
		kids := []*Span{
			root.Child("read", String("tile", "r000_c000")),
			root.Child("read", String("tile", "r000_c001")),
			root.ChildOn("stage/disp", "disp", String("pair", "w_r000_c001")),
		}
		for _, i := range order {
			kids[i].End()
		}
		root.End()
		return r.CanonicalTree()
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 1, 0})
	if a != b {
		t.Fatalf("tree not deterministic:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	for _, want := range []string{"stitch impl=x @run", "  read tile=r000_c000", "  disp pair=w_r000_c001 @stage/disp"} {
		if !strings.Contains(a, want) {
			t.Errorf("tree missing %q:\n%s", want, a)
		}
	}
}

func TestRecorderSharedEpochOffsets(t *testing.T) {
	r := New()
	defer r.Close()
	start := time.Since(r.Epoch())
	r.RecordComplete("gpu/copy", "H2D", start, start+time.Millisecond)
	sp := r.StartSpan("run", "x")
	sp.End()
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	// Both kinds of record share the epoch, so offsets are comparable.
	if spans[0].Start > spans[1].Start+time.Second || spans[1].Start > spans[0].Start+time.Second {
		t.Fatalf("offsets not comparable: %v vs %v", spans[0].Start, spans[1].Start)
	}
}

// TestSpansNeverBetweenRingAndStore pins the hand-over from ring to
// store: the flusher may drain a span at any moment, and a reader that
// then finds the ring empty must already see that span in the store. The
// window is a few instructions wide, so the loop is long; under the race
// detector it trips a few times in ten thousand when the hand-over
// releases the ring lock first.
func TestSpansNeverBetweenRingAndStore(t *testing.T) {
	for i := 0; i < 30000; i++ {
		r := NewWithCapacity(8)
		r.Counter("tiles.read").Add(1)
		r.StartSpan("run", "stitch").End()
		r.Snapshot()
		n := len(r.Spans())
		r.Close()
		if n != 1 {
			t.Fatalf("iteration %d: Spans() saw %d of 1 ended span", i, n)
		}
	}
}
