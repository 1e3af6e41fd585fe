package gpu

import (
	"fmt"
	"testing"
	"time"

	"hybridstitch/internal/fault"
	"hybridstitch/internal/obs"
)

// newTestRecorder builds an obs recorder closed at test end (the gpu
// package's TestMain is leaktest-wired).
func newTestRecorder(t *testing.T) *obs.Recorder {
	t.Helper()
	rec := obs.New()
	t.Cleanup(rec.Close)
	return rec
}

// TestTimelineOrderUnderClockCollision is the regression test for the
// out-of-order timeline bug: event timestamps used to be the only
// ordering, taken outside any queue lock, so two streams hammering a
// coarse clock could record identically-timestamped events whose sort
// order no longer matched dispatch order. The fix records each command
// from its stream's dispatcher goroutine into the obs ring, which assigns
// a sequence number under its lock; Spans() breaks timestamp ties by that
// sequence. Freezing the device clock makes every timestamp collide and
// so exercises nothing but the tie-break.
func TestTimelineOrderUnderClockCollision(t *testing.T) {
	d := New(Config{Profile: true, KernelSlots: 4, CopyEngines: 4})
	defer d.Close()
	frozen := d.epoch.Add(time.Millisecond)
	d.now = func() time.Time { return frozen }

	const streams, perStream = 3, 40
	for si := 0; si < streams; si++ {
		s, err := d.NewStream(fmt.Sprintf("s%d", si))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perStream; i++ {
			s.launch(fault.Site{}, fmt.Sprintf("k%03d", i), func() error { return nil })
		}
	}
	d.Synchronize()

	spans := d.Timeline().Spans()
	if len(spans) != streams*perStream {
		t.Fatalf("got %d spans, want %d", len(spans), streams*perStream)
	}
	// Every timestamp collided; per-stream order must still be submission
	// order, and per-stream Seq strictly increasing (monotone timestamps
	// would be vacuous here, so Seq is the observable).
	next := map[string]int{}
	lastSeq := map[string]uint64{}
	for _, sp := range spans {
		want := fmt.Sprintf("k%03d", next[sp.Stream])
		if sp.Name != want {
			t.Fatalf("stream %s: span %q out of order, want %q", sp.Stream, sp.Name, want)
		}
		next[sp.Stream]++
		if sp.Seq <= lastSeq[sp.Stream] {
			t.Fatalf("stream %s: Seq %d after %d", sp.Stream, sp.Seq, lastSeq[sp.Stream])
		}
		lastSeq[sp.Stream] = sp.Seq
	}
}

// TestTimelinePerStreamMonotonicTimestamps replays a live multi-stream
// run and asserts each stream's recorded intervals are monotone: command
// n+1 on a stream never starts before command n started, and Spans()
// returns them in dispatch order.
func TestTimelinePerStreamMonotonicTimestamps(t *testing.T) {
	d := New(Config{Profile: true, KernelSlots: 2, CopyEngines: 2})
	defer d.Close()
	var streams []*Stream
	for si := 0; si < 4; si++ {
		s, err := d.NewStream(fmt.Sprintf("s%d", si))
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, s)
	}
	for i := 0; i < 25; i++ {
		for _, s := range streams {
			s.launch(fault.Site{}, fmt.Sprintf("k%03d", i), func() error { return nil })
		}
	}
	d.Synchronize()

	last := map[string]Span{}
	seen := map[string]int{}
	for _, sp := range d.Timeline().Spans() {
		if prev, ok := last[sp.Stream]; ok {
			if sp.Start < prev.Start {
				t.Fatalf("stream %s: %q starts at %v before %q at %v",
					sp.Stream, sp.Name, sp.Start, prev.Name, prev.Start)
			}
		}
		want := fmt.Sprintf("k%03d", seen[sp.Stream])
		if sp.Name != want {
			t.Fatalf("stream %s: got %q, want %q", sp.Stream, sp.Name, want)
		}
		seen[sp.Stream]++
		last[sp.Stream] = sp
	}
	for s, n := range seen {
		if n != 25 {
			t.Fatalf("stream %s recorded %d spans", s, n)
		}
	}
}

// TestSharedRecorderScopesDevices proves two devices sharing one obs
// recorder keep their timelines separate (device-prefixed tracks) while
// living on one clock.
func TestSharedRecorderScopesDevices(t *testing.T) {
	rec := newTestRecorder(t)
	d0 := New(Config{Name: "GPU0", Obs: rec})
	defer d0.Close()
	d1 := New(Config{Name: "GPU1", Obs: rec})
	defer d1.Close()
	if !d0.epoch.Equal(rec.Epoch()) || !d1.epoch.Equal(rec.Epoch()) {
		t.Fatal("device epochs not aligned to shared recorder")
	}
	s0, _ := d0.NewStream("q")
	s1, _ := d1.NewStream("q")
	s0.launch(fault.Site{}, "only0", func() error { return nil })
	s1.launch(fault.Site{}, "only1", func() error { return nil })
	d0.Synchronize()
	d1.Synchronize()

	sp0 := d0.Timeline().Spans()
	sp1 := d1.Timeline().Spans()
	if len(sp0) != 1 || sp0[0].Name != "only0" {
		t.Fatalf("GPU0 timeline = %+v", sp0)
	}
	if len(sp1) != 1 || sp1[0].Name != "only1" {
		t.Fatalf("GPU1 timeline = %+v", sp1)
	}
	// The shared recorder sees both, device-prefixed.
	tracks := map[string]bool{}
	for _, cs := range rec.Spans() {
		tracks[cs.Track] = true
	}
	if !tracks["GPU0/q/kernel"] || !tracks["GPU1/q/kernel"] {
		t.Fatalf("tracks = %v", tracks)
	}
	// Kernel latency histogram fed on the shared recorder.
	if c, _, _, _ := rec.Histogram("gpu.op.only0").Stats(); c != 1 {
		t.Fatalf("gpu.op.only0 count = %d", c)
	}
}
