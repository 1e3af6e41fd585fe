// Package blockinglock is the stitchlint fixture for the blockinglock
// analyzer: no blocking operations while a sync.Mutex is held.
package blockinglock

import (
	"sync"
	"time"

	"hybridstitch/internal/gpu"
)

type state struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	cond *sync.Cond
	wg   sync.WaitGroup
	ch   chan int
}

// badSleepUnderDefer holds the lock for the whole function via defer,
// so the sleep stalls every other goroutine on s.mu.
func badSleepUnderDefer(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding s.mu"
}

// badRecvUnderLock blocks on a channel inside the critical section.
func badRecvUnderLock(s *state) int {
	s.mu.Lock()
	v := <-s.ch // want "channel receive while holding s.mu"
	s.mu.Unlock()
	return v
}

// badSendUnderLock blocks on a full channel inside the section.
func badSendUnderLock(s *state, v int) {
	s.mu.Lock()
	s.ch <- v // want "channel send while holding s.mu"
	s.mu.Unlock()
}

// badEventWaitUnderLock waits on device work while serializing the host.
func badEventWaitUnderLock(s *state, ev *gpu.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ev.Wait() // want "gpu.Event.Wait while holding s.mu"
}

// badSynchronizeUnderLock drains a whole device inside the section.
func badSynchronizeUnderLock(s *state, d *gpu.Device) {
	s.mu.Lock()
	d.Synchronize() // want "gpu.Device.Synchronize while holding s.mu"
	s.mu.Unlock()
}

// badWaitGroupUnderLock joins workers that may themselves need the lock.
func badWaitGroupUnderLock(s *state) {
	s.mu.Lock()
	s.wg.Wait() // want "sync.WaitGroup.Wait while holding s.mu"
	s.mu.Unlock()
}

// badSelectUnderRLock blocks in select while readers are locked out of
// upgrades.
func badSelectUnderRLock(s *state, done chan struct{}) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	select { // want "select without default while holding s.rw"
	case <-s.ch:
	case <-done:
	}
}

// okSleepAfterUnlock does the blocking work outside the section — the
// memgov/devicepool idiom.
func okSleepAfterUnlock(s *state) {
	s.mu.Lock()
	s.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// okCondWait is exempt: Cond.Wait releases the mutex while parked.
func okCondWait(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ch) == 0 {
		s.cond.Wait()
	}
}

// okNonBlockingSelect has a default case, so it cannot park.
func okNonBlockingSelect(s *state) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.ch:
		return true
	default:
		return false
	}
}

// okGoroutineUnderLock: the literal's body runs on its own goroutine,
// not under the caller's lock.
func okGoroutineUnderLock(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1
	}()
}
