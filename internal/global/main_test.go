package global

import (
	"testing"

	"hybridstitch/internal/analysis/leaktest"
)

// TestMain fails the package if any test leaks a goroutine: the solve's
// helpers must all have exited when it returns.
func TestMain(m *testing.M) { leaktest.VerifyTestMain(m) }
