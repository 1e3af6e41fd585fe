package fault

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInjectorIsFree(t *testing.T) {
	var in *Injector
	for i := 0; i < 100; i++ {
		if err := in.Hit(SiteTiffRead, "detail"); err != nil {
			t.Fatal(err)
		}
	}
	if in.Fired() != 0 {
		t.Error("nil injector fired")
	}
}

func TestNthAndCount(t *testing.T) {
	in := newInjector(rule{site: SitePCIAMNCC, nth: 3, count: 2})
	var fails []int
	for i := 1; i <= 6; i++ {
		if err := in.Hit(SitePCIAMNCC, ""); err != nil {
			fails = append(fails, i)
			var ie *InjectedError
			if !errors.As(err, &ie) || ie.Hit != int64(i) {
				t.Errorf("hit %d: bad error %v", i, err)
			}
		}
	}
	if len(fails) != 2 || fails[0] != 3 || fails[1] != 4 {
		t.Errorf("fired on hits %v, want [3 4]", fails)
	}
	if in.Fired() != 2 {
		t.Errorf("Fired = %d", in.Fired())
	}
}

func TestAlwaysWithMatch(t *testing.T) {
	in := newInjector(rule{site: SiteTiffRead, match: "r002", always: true})
	if err := in.Hit(SiteTiffRead, "tile_r001_c000.tif"); err != nil {
		t.Errorf("non-matching detail fired: %v", err)
	}
	if err := in.Hit(SiteTiffRead, "tile_r002_c003.tif"); err == nil {
		t.Error("matching detail did not fire")
	}
	if err := in.Hit(SiteTiffRead, "tile_r002_c003.tif"); err == nil {
		t.Error("always rule must fire every time")
	}
	if err := in.Hit(SiteStitchRead, "tile_r002_c003.tif"); err != nil {
		t.Errorf("wrong site fired: %v", err)
	}
}

func TestProbDeterministicAcrossInjectors(t *testing.T) {
	sequence := func() []bool {
		in := newInjector(rule{site: SiteStitchFFT, prob: 0.3, seed: 99})
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.Hit(SiteStitchFFT, "") != nil
		}
		return out
	}
	a, b := sequence(), sequence()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d diverged between identically seeded injectors", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Errorf("prob=0.3 fired %d/%d times", fired, len(a))
	}
}

func TestInjectorConcurrentHits(t *testing.T) {
	in := newInjector(rule{site: SiteGPUAlloc, nth: 1, count: 10})
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if in.Hit(SiteGPUAlloc, "") != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 10 {
		t.Errorf("fired %d times under concurrency, want exactly 10", fired)
	}
}

func TestParseSpec(t *testing.T) {
	in, err := ParseSpec("tiffio.read:nth=5,count=2; gpu.kernel.fft:prob=0.5,seed=7; tiffio.read@r002:always,err=disk gone")
	if err != nil {
		t.Fatal(err)
	}
	// nth=5,count=2 on generic reads.
	fails := 0
	for i := 0; i < 8; i++ {
		if in.Hit(SiteTiffRead, "tile_r000_c000.tif") != nil {
			fails++
		}
	}
	if fails != 2 {
		t.Errorf("nth rule fired %d times, want 2", fails)
	}
	// always rule with match and custom message.
	err = in.Hit(SiteTiffRead, "tile_r002_c001.tif")
	if err == nil {
		t.Fatal("match rule did not fire")
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Msg != "disk gone" {
		t.Errorf("err = %v", err)
	}
	if !IsInjected(err) {
		t.Error("IsInjected false for injected error")
	}
}

func TestParseSpecEmptyAndErrors(t *testing.T) {
	if in, err := ParseSpec("   "); err != nil || in != nil {
		t.Errorf("empty spec: %v, %v", in, err)
	}
	for _, bad := range []string{
		"noseparator",
		":nth=1",
		"@r001:always",
		"stitch.read:nth=0",
		"stitch.read:prob=2",
		"stitch.read:count=3", // needs nth/always/prob
		"stitch.read:wat=1",
		"stitch.read:nth=x",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q should fail to parse", bad)
		}
	}
}

// TestParseSpecRejectsUnregisteredSite: a rule on a site no component
// fires could never fire, so the spec must not parse. The first three
// were accepted (and silently dead) before the registry became a type;
// the last is a plain typo. The error names the registry.
func TestParseSpecRejectsUnregisteredSite(t *testing.T) {
	for _, spec := range []string{
		"gpu.copy.d2h:always",
		"gpu.kernel.reduce:nth=1",
		"gpu.kernel.fft2d:always",
		"gpu.kernl.fft:nth=1",
		"stitch.read:nth=1;gpu.kernl.fft:nth=1",
	} {
		in, err := ParseSpec(spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted an unregistered site", spec)
			continue
		}
		if in != nil {
			t.Errorf("ParseSpec(%q) returned an injector with its error", spec)
		}
		if !strings.Contains(err.Error(), "registered sites: "+SiteNames()) {
			t.Errorf("ParseSpec(%q) error %q does not name the registry", spec, err)
		}
	}
	for _, s := range Sites() {
		if _, err := ParseSpec(s.String() + ":nth=1"); err != nil {
			t.Errorf("registered site %s rejected: %v", s, err)
		}
	}
}

func TestRetrierAbsorbsTransients(t *testing.T) {
	calls := 0
	err := Retrier{MaxRetries: 3}.Do(func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
}

func TestRetrierExhaustsAndAnnotates(t *testing.T) {
	base := errors.New("still down")
	calls := 0
	err := Retrier{MaxRetries: 2}.Do(func() error { calls++; return base })
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, base) {
		t.Errorf("err %v lost the cause chain", err)
	}
	if want := "after 3 attempts"; err == nil || !contains(err.Error(), want) {
		t.Errorf("err %v missing %q", err, want)
	}
}

func TestRetrierStopsOnPermanent(t *testing.T) {
	calls := 0
	base := errors.New("corrupt")
	err := Retrier{MaxRetries: 5}.Do(func() error { calls++; return Permanent(base) })
	if calls != 1 {
		t.Errorf("permanent error retried %d times", calls-1)
	}
	if !IsPermanent(err) || !errors.Is(err, base) {
		t.Errorf("err = %v", err)
	}
}

func TestRetrierBackoffSchedule(t *testing.T) {
	var slept []time.Duration
	r := Retrier{
		MaxRetries: 3,
		Backoff:    10 * time.Millisecond,
		MaxBackoff: 25 * time.Millisecond,
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	}
	_ = r.Do(func() error { return errors.New("x") })
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v", slept)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("backoff %d = %v, want %v", i, slept[i], want[i])
		}
	}
}

func TestPermanentNil(t *testing.T) {
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) should stay nil")
	}
	if IsPermanent(errors.New("plain")) {
		t.Error("plain error marked permanent")
	}
}

func TestInjectedErrorFormat(t *testing.T) {
	e := &InjectedError{Site: SiteGPUAlloc, Detail: "GPU0", Hit: 4}
	if !contains(e.Error(), "gpu.alloc") || !contains(e.Error(), "GPU0") {
		t.Errorf("Error() = %q", e.Error())
	}
	e2 := &InjectedError{Site: SiteStitchRead, Hit: 1, Msg: "boom"}
	if !contains(e2.Error(), "boom") {
		t.Errorf("Error() = %q", e2.Error())
	}
	if fmt.Sprintf("%v", e2) == "" {
		t.Error("empty format")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
