package main

import (
	"bytes"
	"strings"
	"testing"
)

// seededWant is the exact diagnostic list for the known-bad fixture: one
// violation per seeded analyzer, in position order.
var seededWant = []string{
	"bad.go:17:12: [pairguard] result of gpu.Device.Alloc is never freed or ownership-transferred",
	"bad.go:27:2: [blockinglock] sync.WaitGroup.Wait while holding mu (critical section starts at line 26)",
	"bad.go:48:2: [lockorder] call to bad.guarded.bump while holding bad.guarded.mu: the callee (transitively) locks bad.guarded.mu — self-deadlock",
	`bad.go:53:14: [obsnames] obs name literal "bad.bogus.count" is not in the internal/obs names registry — add it to internal/obs/names.go or use the existing constant`,
}

// trimToBasename cuts each output line down to the bad.go-relative form
// so the absolute load path does not leak into expectations.
func trimToBasename(out string) []string {
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		if i := strings.Index(line, "bad.go:"); i >= 0 {
			line = line[i:]
		}
		got = append(got, line)
	}
	return got
}

// TestSeededViolations runs the full multichecker over the known-bad
// fixture and asserts the exact diagnostics: one per seeded analyzer,
// correct positions, exit status 1.
func TestSeededViolations(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./testdata/src/bad"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}

	got := trimToBasename(stdout.String())
	if len(got) != len(seededWant) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(seededWant), stdout.String())
	}
	for i := range seededWant {
		if got[i] != seededWant[i] {
			t.Errorf("diagnostic %d:\n got %q\nwant %q", i, got[i], seededWant[i])
		}
	}
	if !strings.Contains(stderr.String(), "4 finding(s)") {
		t.Errorf("stderr summary = %q, want it to report 4 finding(s)", stderr.String())
	}
}

// TestAnalyzerSubset restricts the run to one analyzer; only its finding
// must surface.
func TestAnalyzerSubset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-analyzers", "obsnames", "./testdata/src/bad"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[obsnames]") || strings.Contains(out, "[pairguard]") {
		t.Errorf("subset run output:\n%s", out)
	}
}

// TestTreeClean is the gate the Makefile relies on: the repository's own
// packages must carry zero findings.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole tree")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "../..", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("stitchlint over the tree: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
}

func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, name := range []string{"pairguard", "blockinglock", "lockorder", "obsnames", "hotpath"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown analyzer exit = %d, want 2", code)
	}
}
