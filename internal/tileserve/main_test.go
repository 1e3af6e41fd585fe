package tileserve

import (
	"testing"

	"hybridstitch/internal/analysis/leaktest"
)

// TestMain fails the package if any test leaks a goroutine: test
// servers, their connections and obs recorders must all be closed.
func TestMain(m *testing.M) { leaktest.VerifyTestMain(m) }
