package fft

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The measured-plan autotuner. A 2-D plan built with ExecAuto times its
// two execution shapes once at plan time — serial and recursive split —
// and commits to the faster. This is the one timed choice in the package,
// and it may be timed because it cannot change a bit: split execution
// only repartitions the row and column loops (pinned by the
// ParallelMatchesSerial tests). Decisions are cached per (kind, size, budget)
// so repeated plan construction (aligner pools, benchmarks) pays
// measurement once, and counted in package atomics that the stitch
// layer publishes as the obs counters fft.autotune.{serial,split}
// (this package deliberately does not import obs).

// ExecStrategy selects how a 2-D plan's row and column passes execute.
type ExecStrategy int

const (
	// ExecAuto measures serial vs split at plan time and keeps split
	// only when it is clearly faster (serial, unmeasured, when the
	// plan's pool has no free token).
	ExecAuto ExecStrategy = iota
	// ExecSerial forces single-goroutine passes — the zero-allocation
	// steady-state path.
	ExecSerial
	// ExecSplit forces the recursive split-by-cores path (it still
	// degrades to inline execution when the pool has no free tokens).
	ExecSplit
)

func (e ExecStrategy) String() string {
	switch e {
	case ExecAuto:
		return "auto"
	case ExecSerial:
		return "serial"
	case ExecSplit:
		return "split"
	default:
		return fmt.Sprintf("ExecStrategy(%d)", int(e))
	}
}

// ParseExecStrategy converts a CLI flag value into an ExecStrategy.
func ParseExecStrategy(s string) (ExecStrategy, error) {
	switch s {
	case "auto", "":
		return ExecAuto, nil
	case "serial":
		return ExecSerial, nil
	case "split":
		return ExecSplit, nil
	default:
		return ExecAuto, fmt.Errorf("fft: unknown exec strategy %q (want auto, serial, or split)", s)
	}
}

// autotuneFloor is the minimum element count below which ExecAuto skips
// measurement entirely: transforms this small never repay a goroutine
// handoff, let alone a timing run.
const autotuneFloor = 2 * splitMinWork

var (
	autotuneSerialCount atomic.Int64
	autotuneSplitCount  atomic.Int64
)

// AutotuneCounts returns the process-wide counts of autotuner decisions
// by outcome, exported for the stitch layer's obs bridge.
func AutotuneCounts() (serial, split int64) {
	return autotuneSerialCount.Load(), autotuneSplitCount.Load()
}

// autoKey identifies one cached autotune decision.
type autoKey struct {
	kind   string // "c2c-forward", "c2c-inverse", "r2c"
	h, w   int
	budget int
}

// autoCache holds the committed decisions, each ExecSerial or ExecSplit.
var (
	autoMu    sync.Mutex
	autoCache = map[autoKey]ExecStrategy{}
)

// resetAutotuneForTest clears the decision cache (test-only).
func resetAutotuneForTest() {
	autoMu.Lock()
	autoCache = map[autoKey]ExecStrategy{}
	autoMu.Unlock()
}

// countChoice records a decision in the package counters.
func countChoice(c ExecStrategy) {
	if c == ExecSplit {
		autotuneSplitCount.Add(1)
	} else {
		autotuneSerialCount.Add(1)
	}
}

// autotuneReps is how many timed executions each candidate gets; the
// minimum is kept, as FFTW's measured planning does.
const autotuneReps = 2

// measure times fn (one warm-up, autotuneReps timed) and returns the
// minimum. Returns a huge duration if fn errors, so a broken candidate
// can never win.
func measure(fn func() error) time.Duration {
	if err := fn(); err != nil {
		return 1<<62 - 1
	}
	best := time.Duration(1<<62 - 1)
	for r := 0; r < autotuneReps; r++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 1<<62 - 1
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// autotune returns the cached or freshly measured choice for key.
// runSerial and runSplit execute one representative transform under each
// strategy. Serial — the zero-allocation path — wins ties: split is
// chosen only when it measures at least a tenth faster, so two shapes
// that differ by noise alone are not a coin flip. The caller only
// invokes this when the pool has a free token (a split that cannot fork
// is serial with extra steps — the callers skip the measurement) and
// the size is above autotuneFloor; every decision (including the trivial
// ones the caller makes itself) is recorded via countChoice.
func autotune(key autoKey, runSerial, runSplit func() error) ExecStrategy {
	autoMu.Lock()
	c, ok := autoCache[key]
	autoMu.Unlock()
	if !ok {
		c = ExecSerial
		if ts := measure(runSerial); measure(runSplit) < ts-ts/10 {
			c = ExecSplit
		}
		autoMu.Lock()
		autoCache[key] = c
		autoMu.Unlock()
	}
	countChoice(c)
	return c
}
