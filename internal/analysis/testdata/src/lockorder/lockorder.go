// Package lockorder is the stitchlint fixture for the whole-program
// lock-ordering analysis: the cross-type lock graph must be acyclic, and
// no lock-held path may re-lock the same mutex type, directly or through
// a call.
package lockorder

import "sync"

// A demonstrates the self-deadlock reports.
type A struct {
	mu sync.Mutex
	n  int
}

// relock is the direct recursive-lock deadlock: Go mutexes are not
// reentrant.
func (a *A) relock() {
	a.mu.Lock()
	a.mu.Lock() // want "Lock on lockorder.A.mu while lockorder.A.mu is already held"
	a.n++
	a.mu.Unlock()
	a.mu.Unlock()
}

// helper locks the same mutex type its callers may hold.
func (a *A) helper() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
}

// outer re-locks through a call: the deferred Unlock keeps a.mu held
// when helper runs.
func (a *A) outer() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.helper() // want "call to lockorder.A.helper while holding lockorder.A.mu"
}

// okSequentialHelper releases before calling: no lock is held at the
// call, so nothing is reported.
func (a *A) okSequentialHelper() {
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
	a.helper()
}

// okClosureIsOwnScope: a literal that locks a.mu defined under the lock
// is not a lock-held acquisition — it runs whenever the caller invokes
// it, in its own scope.
func (a *A) okClosureIsOwnScope() func() {
	a.mu.Lock()
	defer a.mu.Unlock()
	return func() {
		a.mu.Lock()
		defer a.mu.Unlock()
		a.n++
	}
}

// R demonstrates the read-lock variant: two RLocks on one goroutine
// deadlock the moment a writer queues between them.
type R struct {
	mu sync.RWMutex
	n  int
}

func (r *R) doubleRead() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.mu.RLock() // want "RLock on lockorder.R.mu while lockorder.R.mu is already held"
	n := r.n
	r.mu.RUnlock()
	return n
}

// C and D form the ordering cycle: lockCD acquires C then D, lockDC
// acquires D then C. Two goroutines taking the two orders deadlock.
type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }

func lockCD(c *C, d *D) {
	c.mu.Lock()
	d.mu.Lock() // want "lock-order cycle among .lockorder.C.mu, lockorder.D.mu."
	d.mu.Unlock()
	c.mu.Unlock()
}

func lockDC(c *C, d *D) {
	d.mu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	d.mu.Unlock()
}

// E and F are ordered consistently everywhere — edges without a cycle
// are the normal state of a layered system and stay silent.
type E struct{ mu sync.Mutex }
type F struct {
	mu sync.Mutex
	n  int
}

func lockEF(e *E, f *F) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
}

// touchF locks F on its own; callers holding E.mu create the same E→F
// edge as lockEF — consistent, still silent.
func touchF(f *F) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
}

func lockEThenCallF(e *E, f *F) {
	e.mu.Lock()
	defer e.mu.Unlock()
	touchF(f)
}

// count locks A.mu to read the counter.
func (a *A) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

func sink(int) {}

// okGoCalleeRunsElsewhere: the spawned goroutine holds none of the
// spawner's locks, so a go statement's callee that locks a.mu is not a
// re-lock.
func (a *A) okGoCalleeRunsElsewhere() {
	a.mu.Lock()
	defer a.mu.Unlock()
	go a.helper()
}

// goArgsRunInSpawner: a go statement's arguments are evaluated by the
// spawner, under its locks.
func (a *A) goArgsRunInSpawner() {
	a.mu.Lock()
	defer a.mu.Unlock()
	go sink(a.count()) // want "call to lockorder.A.count while holding lockorder.A.mu"
}
