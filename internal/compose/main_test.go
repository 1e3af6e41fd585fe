package compose

import (
	"testing"

	"hybridstitch/internal/analysis/leaktest"
)

// TestMain fails the package if any test leaks a goroutine: read-ahead
// helpers and the pyramid writer's goroutines must all have exited when
// ComposeSharded returns, on success and on every error path.
func TestMain(m *testing.M) { leaktest.VerifyTestMain(m) }
