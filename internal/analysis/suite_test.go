package analysis_test

import (
	"strings"
	"testing"

	"hybridstitch/internal/analysis"
	"hybridstitch/internal/analysis/analysistest"
)

// Each fixture package exercises at least one true positive and one
// clean case per analyzer; the want comments in the fixtures are the
// assertions.

func TestPairGuardFixture(t *testing.T) {
	analysistest.Run(t, "./testdata/src/pairguard", analysis.PairGuard)
}

func TestLockOrderFixture(t *testing.T) {
	analysistest.Run(t, "./testdata/src/lockorder", analysis.LockOrder)
}

func TestObsNamesFixture(t *testing.T) {
	analysistest.Run(t, "./testdata/src/obsnames", analysis.ObsNames)
}

func TestBlockingLockFixture(t *testing.T) {
	analysistest.Run(t, "./testdata/src/blockinglock", analysis.BlockingLock)
}

func TestHotPathFixture(t *testing.T) {
	analysistest.Run(t, "./testdata/src/hotpath", analysis.HotPath)
}

func TestByName(t *testing.T) {
	all, err := analysis.ByName("")
	if err != nil || len(all) != 5 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 5, nil", len(all), err)
	}
	two, err := analysis.ByName("pairguard, lockorder")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName subset = %d analyzers, err %v; want 2, nil", len(two), err)
	}
	if _, err := analysis.ByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("ByName(nope) err = %v, want unknown-analyzer error", err)
	}
}

// TestSuppressionRequiresReason: a //lint:allow without a reason must
// not suppress, and must itself be reported.
func TestSuppressionRequiresReason(t *testing.T) {
	pkgs, err := analysis.Load(analysis.LoadConfig{}, "./testdata/src/badallow")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{analysis.PairGuard})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var sawLeak, sawMalformed bool
	for _, d := range diags {
		switch d.Analyzer {
		case "pairguard":
			sawLeak = true
		case "suppression":
			sawMalformed = true
		}
	}
	if !sawLeak {
		t.Errorf("reason-less //lint:allow suppressed the diagnostic; diagnostics: %v", diags)
	}
	if !sawMalformed {
		t.Errorf("missing malformed-suppression diagnostic; diagnostics: %v", diags)
	}
}
