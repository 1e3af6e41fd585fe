// Package bad seeds exactly one violation for each of the pairing,
// blocking-lock, lock-order and obs-name checks. It is the known-bad
// input for stitchlint's own tests: the multichecker must find all four
// and exit non-zero.
package bad

import (
	"sync"

	"hybridstitch/internal/gpu"
	"hybridstitch/internal/obs"
)

// leak allocates from the device pool and drops the buffer: calling a
// method on it is not a transfer, so the obligation is never met.
func leak(d *gpu.Device) int64 {
	b, err := d.Alloc(16)
	if err != nil {
		return 0
	}
	return b.Words()
}

// sleepy blocks on a WaitGroup while holding the mutex.
func sleepy(mu *sync.Mutex, wg *sync.WaitGroup) {
	mu.Lock()
	wg.Wait()
	mu.Unlock()
}

// guarded owns a mutex that double re-locks through a nested call.
type guarded struct {
	mu sync.Mutex
	n  int
}

func (g *guarded) bump() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
}

// double calls bump with guarded.mu already held: non-reentrant
// self-deadlock.
func (g *guarded) double() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.bump()
}

// misnamed records a counter whose name is in no registry.
func misnamed(rec *obs.Recorder) {
	rec.Counter("bad.bogus.count").Add(1)
}
