package gpu

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hybridstitch/internal/fault"
	"hybridstitch/internal/fft"
)

func TestAllocFreeAccounting(t *testing.T) {
	d := New(Config{MemWords: 100})
	a, err := d.Alloc(60)
	if err != nil {
		t.Fatal(err)
	}
	//lint:allow pairguard allocation must fail with ErrOutOfMemory; nothing is allocated
	if _, err := d.Alloc(50); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("overcommit allowed: %v", err)
	}
	b, err := d.Alloc(40)
	if err != nil {
		t.Fatal(err)
	}
	used, peak, allocs, oom := d.MemStats()
	if used != 100 || peak != 100 || allocs != 2 || !oom {
		t.Errorf("stats = %d %d %d %v", used, peak, allocs, oom)
	}
	if err := a.Free(); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(); err == nil {
		t.Error("double free should fail")
	}
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	used, _, _, _ = d.MemStats()
	if used != 0 {
		t.Errorf("used = %d after frees", used)
	}
	//lint:allow pairguard zero-word allocation must fail; nothing is allocated
	if _, err := d.Alloc(0); err == nil {
		t.Error("zero alloc should fail")
	}
}

func TestMemoryNeverOvercommittedProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		d := New(Config{MemWords: 64})
		var live []*Buffer
		for _, s := range sizes {
			w := int64(s)%32 + 1
			b, err := d.Alloc(w)
			if err != nil {
				continue
			}
			live = append(live, b)
			if len(live) > 3 {
				if live[0].Free() != nil {
					return false
				}
				live = live[1:]
			}
			used, peak, _, _ := d.MemStats()
			if used > 64 || peak > 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStreamInOrderExecution(t *testing.T) {
	d := New(Config{})
	defer d.Close()
	s, err := d.NewStream("s0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		s.launch(fault.Site{}, "op", func() error {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		})
	}
	s.Synchronize()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: stream violated FIFO", i, v)
		}
	}
}

func TestStreamsOverlapButKernelSlotLimits(t *testing.T) {
	d := New(Config{KernelSlots: 1, CopyEngines: 2})
	defer d.Close()
	s1, _ := d.NewStream("a")
	s2, _ := d.NewStream("b")
	var mu sync.Mutex
	active, peak := 0, 0
	kernel := func() error {
		mu.Lock()
		active++
		if active > peak {
			peak = active
		}
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		active--
		mu.Unlock()
		return nil
	}
	for i := 0; i < 5; i++ {
		s1.launch(fault.Site{}, "k", kernel)
		s2.launch(fault.Site{}, "k", kernel)
	}
	d.Synchronize()
	if peak != 1 {
		t.Errorf("kernel concurrency peak %d with 1 slot", peak)
	}

	// With 2 slots the streams must overlap.
	d2 := New(Config{KernelSlots: 2})
	defer d2.Close()
	t1, _ := d2.NewStream("a")
	t2, _ := d2.NewStream("b")
	mu.Lock()
	active, peak = 0, 0
	mu.Unlock()
	for i := 0; i < 5; i++ {
		t1.launch(fault.Site{}, "k", kernel)
		t2.launch(fault.Site{}, "k", kernel)
	}
	d2.Synchronize()
	if peak < 2 {
		t.Errorf("kernel concurrency peak %d with 2 slots and 2 streams", peak)
	}
}

func TestCrossStreamEventDependency(t *testing.T) {
	d := New(Config{KernelSlots: 4})
	defer d.Close()
	s1, _ := d.NewStream("producer")
	s2, _ := d.NewStream("consumer")
	var mu sync.Mutex
	var order []string
	ev := s1.launch(fault.Site{}, "produce", func() error {
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		order = append(order, "produce")
		mu.Unlock()
		return nil
	})
	done := s2.launch(fault.Site{}, "consume", func() error {
		mu.Lock()
		order = append(order, "consume")
		mu.Unlock()
		return nil
	}, ev)
	if err := done.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "produce" || order[1] != "consume" {
		t.Fatalf("order = %v", order)
	}
}

func TestMemcpyRoundTrip(t *testing.T) {
	d := New(Config{})
	defer d.Close()
	s, _ := d.NewStream("s")
	buf, err := d.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = buf.Free() }()
	src := make([]float64, 63) // odd: the last word holds one value
	for i := range src {
		src[i] = float64(i) - 0.5
	}
	if err := s.MemcpyH2DPackedReal(buf, src).Wait(); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(src))
	unpackReals(dst, buf.Data)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("value %d: %v != %v", i, dst[i], src[i])
		}
	}
	// size violation: 65 reals need 33 words
	if err := s.MemcpyH2DPackedReal(buf, make([]float64, 65)).Wait(); err == nil {
		t.Error("oversized H2D should fail")
	}
}

// TestKernelFFTMatchesHost: the device's in-place r2c transform of
// packed pixels is the host plan's half spectrum, bit for bit.
func TestKernelFFTMatchesHost(t *testing.T) {
	const h, w = 12, 16
	d := New(Config{})
	defer d.Close()
	s, _ := d.NewStream("s")
	plan, err := fft.NewRealPlan2DOpts(h, w, fft.Real2DOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	host := make([]float64, h*w)
	for i := range host {
		host[i] = rng.Float64()
	}
	sh, sw := plan.SpectrumDims()
	want := make([]complex128, sh*sw)
	hostPlan, _ := fft.NewRealPlan2DOpts(h, w, fft.Real2DOpts{})
	if err := hostPlan.Forward(want, host); err != nil {
		t.Fatal(err)
	}

	buf, _ := d.AllocSpectrum(h, w)
	defer func() { _ = buf.Free() }()
	s.MemcpyH2DPackedReal(buf, host)
	if err := s.RealFFT2D(plan, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	got := buf.Data[:sh*sw]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("device FFT differs from host at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestTimelineRecordsAndUtilization(t *testing.T) {
	d := New(Config{Profile: true, KernelSlots: 2})
	defer d.Close()
	s, _ := d.NewStream("s0")
	for i := 0; i < 3; i++ {
		s.launch(fault.Site{}, "work", func() error {
			time.Sleep(2 * time.Millisecond)
			return nil
		})
	}
	s.Synchronize()
	tl := d.Timeline()
	spans := tl.Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	for _, sp := range spans {
		if sp.Duration() <= 0 {
			t.Errorf("span %v has non-positive duration", sp)
		}
	}
	from, to := spans[0].Start, spans[len(spans)-1].End
	u := tl.Utilization("kernel", from, to)
	if u <= 0.5 || u > 1.0001 {
		t.Errorf("utilization = %g", u)
	}
	out := tl.Render(60)
	if out == "" || out == "(empty timeline)\n" {
		t.Error("render produced nothing")
	}
}

func TestTimelineGapCount(t *testing.T) {
	tl := newOwnTimeline(time.Now())
	defer tl.Close()
	tl.Record(Span{Stream: "s", Kind: "kernel", Name: "a", Start: 0, End: time.Millisecond})
	tl.Record(Span{Stream: "s", Kind: "kernel", Name: "b", Start: 10 * time.Millisecond, End: 11 * time.Millisecond})
	tl.Record(Span{Stream: "s", Kind: "kernel", Name: "c", Start: 11 * time.Millisecond, End: 12 * time.Millisecond})
	if g := tl.GapCount("kernel", 2*time.Millisecond); g != 1 {
		t.Errorf("GapCount = %d, want 1", g)
	}
}

func TestDeviceCloseRejectsWork(t *testing.T) {
	d := New(Config{})
	s, _ := d.NewStream("s")
	d.Close()
	if err := s.launch(fault.Site{}, "late", func() error { return nil }).Wait(); !errors.Is(err, ErrClosed) {
		t.Errorf("launch after close: %v", err)
	}
	if _, err := d.NewStream("s2"); !errors.Is(err, ErrClosed) {
		t.Errorf("new stream after close: %v", err)
	}
	d.Close() // idempotent
}

func TestBandwidthModelDelays(t *testing.T) {
	// 16 KiB at 1 MiB/s ≈ 15.6 ms; assert a noticeable lower bound.
	d := New(Config{H2DBytesPerSec: 1 << 20})
	defer d.Close()
	s, _ := d.NewStream("s")
	buf, _ := d.Alloc(1024)
	defer func() { _ = buf.Free() }()
	src := make([]float64, 2048)
	start := time.Now()
	if err := s.MemcpyH2DPackedReal(buf, src).Wait(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Errorf("bandwidth-limited copy finished in %v", el)
	}
}

func TestFailedDependencyPropagates(t *testing.T) {
	d := New(Config{KernelSlots: 2})
	defer d.Close()
	s1, _ := d.NewStream("a")
	s2, _ := d.NewStream("b")
	bad := s1.launch(fault.Site{}, "explode", func() error { return errors.New("explode") })
	dep := s2.launch(fault.Site{}, "after", func() error { return nil }, bad)
	if err := dep.Wait(); err == nil {
		t.Error("dependent op should fail when its dependency fails")
	}
}

func TestPresets(t *testing.T) {
	f := FermiConfig("fermi")
	if f.KernelSlots != 1 {
		t.Error("Fermi must serialize kernels")
	}
	k := KeplerConfig("kepler")
	if k.KernelSlots <= f.KernelSlots {
		t.Error("Kepler must allow concurrent kernels")
	}
	// 6 GB holds ≈258 paper-sized transforms (6e9 B / 23.2 MB) — far
	// fewer than the 2478-tile grid needs, which is why the pool and
	// refcounting exist.
	if n := f.MemWords / (1392 * 1040); n < 230 || n > 290 {
		t.Errorf("Fermi capacity holds %d paper transforms, want ≈258", n)
	}
}

func TestHyperQConcurrentFFTKernels(t *testing.T) {
	// On a Kepler-class device two streams' kernels overlap; measure via
	// the timeline that at least two kernel spans intersect.
	d := New(Config{KernelSlots: 4, Profile: true})
	defer d.Close()
	s1, _ := d.NewStream("q1")
	s2, _ := d.NewStream("q2")
	work := func() error { time.Sleep(3 * time.Millisecond); return nil }
	for i := 0; i < 3; i++ {
		s1.launch(fault.Site{}, "fft", work)
		s2.launch(fault.Site{}, "fft", work)
	}
	d.Synchronize()
	spans := d.Timeline().Spans()
	overlapped := false
	for i := 0; i < len(spans); i++ {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].Kind == "kernel" && spans[j].Kind == "kernel" &&
				spans[j].Start < spans[i].End && spans[i].Start < spans[j].End {
				overlapped = true
			}
		}
	}
	if !overlapped {
		t.Error("no kernel overlap on a multi-slot device")
	}
}

func TestWriteTrace(t *testing.T) {
	d := New(Config{Profile: true, KernelSlots: 2})
	defer d.Close()
	s, _ := d.NewStream("s0")
	for i := 0; i < 3; i++ {
		s.launch(fault.Site{}, "fft2d", func() error { time.Sleep(time.Millisecond); return nil })
	}
	s.Synchronize()
	var buf bytes.Buffer
	if err := d.Timeline().WriteTrace(&buf, "GPU0"); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			Dur   int64  `json:"dur"`
			TID   int    `json:"tid"`
		} `json:"traceEvents"`
		Metadata map[string]string `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if parsed.Metadata["device"] != "GPU0" {
		t.Errorf("metadata = %v", parsed.Metadata)
	}
	var xEvents, mEvents int
	for _, e := range parsed.TraceEvents {
		switch e.Phase {
		case "X":
			xEvents++
			if e.Dur < 1 || e.TID < 1 {
				t.Errorf("bad X event %+v", e)
			}
		case "M":
			mEvents++
		}
	}
	if xEvents != 3 || mEvents < 1 {
		t.Errorf("events: %d X, %d M", xEvents, mEvents)
	}
}
