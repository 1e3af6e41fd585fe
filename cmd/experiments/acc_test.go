package main

import "testing"

// TestAccDiffRejectsSelfComparison: diffing a snapshot against itself
// cannot fail, so it is refused rather than reported as "no regression".
func TestAccDiffRejectsSelfComparison(t *testing.T) {
	if err := runAcc("", 0, false, "../../ACC_pr6.json", "../../ACC_pr6.json"); err == nil {
		t.Fatal("identical -acc-old and -acc-new accepted")
	}
}
