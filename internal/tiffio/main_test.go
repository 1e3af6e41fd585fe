package tiffio

import (
	"testing"

	"hybridstitch/internal/analysis/leaktest"
)

// TestMain fails the package if any test leaks a goroutine: a
// PyramidWriter's writer goroutine and deflate helpers must all have
// exited once Close or Abort returns.
func TestMain(m *testing.M) { leaktest.VerifyTestMain(m) }
