package gpu

import (
	"fmt"
	"sync"
	"time"

	"hybridstitch/internal/fault"
)

// opKind classifies commands for the profiler and engine arbitration.
type opKind int

const (
	opH2D opKind = iota
	opKernel
)

func (k opKind) String() string {
	if k == opH2D {
		return "memcpyH2D"
	}
	return "kernel"
}

// Event resolves when its command has executed. Like a CUDA event, it can
// be waited on from host code or used to chain dependencies between
// streams.
type Event struct {
	done chan struct{}
	err  error
}

func newEvent() *Event { return &Event{done: make(chan struct{})} }

// Wait blocks until the command completes and returns its error.
func (e *Event) Wait() error {
	<-e.done
	return e.err
}

// Done exposes the completion channel for select loops.
func (e *Event) Done() <-chan struct{} { return e.done }

// command is one queued stream operation.
type command struct {
	kind  opKind
	site  fault.Site // error point consulted before fn runs
	name  string
	after []*Event // cross-stream dependencies
	fn    func() error
	ev    *Event
}

// Stream is an in-order command queue, the CUDA stream analogue. Commands
// on one stream execute strictly in submission order; commands on
// different streams overlap subject to the device's copy-engine and
// kernel-slot limits — exactly the mechanism whose absence serialized the
// Simple-GPU implementation (Fig 7) and whose use densified the
// Pipelined-GPU profile (Fig 9).
type Stream struct {
	dev  *Device
	name string

	mu     sync.Mutex
	queue  []*command
	kick   *sync.Cond
	closed bool
	idle   bool
	wg     sync.WaitGroup

	// realScratch stages unpacked real surfaces for the r2c kernels.
	// Commands run one at a time on the dispatcher goroutine, so lazy
	// growth here is race-free; after the first launch of a given size the
	// kernels stop allocating per pair.
	realScratch []float64
}

// realsScratch returns the stream's real staging buffer grown to at least
// n values. Call only from inside a kernel fn (dispatcher goroutine).
func (s *Stream) realsScratch(n int) []float64 {
	if cap(s.realScratch) < n {
		s.realScratch = make([]float64, n)
	}
	return s.realScratch[:n]
}

// NewStream creates a stream and starts its dispatcher.
func (d *Device) NewStream(name string) (*Stream, error) {
	d.streamMu.Lock()
	defer d.streamMu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	s := &Stream{dev: d, name: name, idle: true}
	s.kick = sync.NewCond(&s.mu)
	d.streams = append(d.streams, s)
	s.wg.Add(1)
	go s.dispatch()
	return s, nil
}

// Name returns the stream label.
func (s *Stream) Name() string { return s.name }

// enqueue appends a command and returns its event.
func (s *Stream) enqueue(kind opKind, site fault.Site, name string, after []*Event, fn func() error) *Event {
	ev := newEvent()
	cmd := &command{kind: kind, site: site, name: name, after: after, fn: fn, ev: ev}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ev.err = ErrClosed
		close(ev.done)
		return ev
	}
	s.queue = append(s.queue, cmd)
	s.kick.Signal()
	s.mu.Unlock()
	return ev
}

// dispatch is the stream's dispatcher goroutine: strictly in-order
// execution with engine arbitration against sibling streams.
func (s *Stream) dispatch() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.idle = true
			s.kick.Broadcast() // wake Synchronize waiters
			s.kick.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.idle = true
			s.kick.Broadcast()
			s.mu.Unlock()
			return
		}
		s.idle = false
		cmd := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()

		s.execute(cmd)
	}
}

func (s *Stream) execute(cmd *command) {
	// Cross-stream dependencies first (StreamWaitEvent semantics).
	for _, dep := range cmd.after {
		if err := dep.Wait(); err != nil {
			cmd.ev.err = fmt.Errorf("gpu: dependency of %s failed: %w", cmd.name, err)
			close(cmd.ev.done)
			return
		}
	}
	// Engine arbitration.
	sem := s.dev.kernelSem
	if cmd.kind == opH2D {
		sem = s.dev.copySem
	}
	sem <- struct{}{}
	start := s.dev.now()
	// An injected error takes the place of the command's own result, so
	// it propagates through events and cross-stream dependencies exactly
	// like a real device failure. The detail is "stream/op".
	var err error
	if in := s.dev.cfg.Faults; in != nil {
		err = in.Hit(cmd.site, s.name+"/"+cmd.name)
	}
	if err == nil {
		err = cmd.fn()
	}
	end := s.dev.now()
	<-sem
	if tl := s.dev.timeline; tl != nil {
		// Recording from the dispatcher goroutine hands the obs recorder
		// this stream's commands in execution order, so the Seq it assigns
		// under its ring lock preserves per-stream ordering even when the
		// coarse clock gives concurrent streams identical timestamps.
		tl.Record(Span{
			Stream: s.name,
			Kind:   cmd.kind.String(),
			Name:   cmd.name,
			Start:  start.Sub(s.dev.epoch),
			End:    end.Sub(s.dev.epoch),
		})
		tl.observeOp(cmd.name, end.Sub(start))
	}
	cmd.ev.err = err
	close(cmd.ev.done)
}

// Synchronize blocks until the stream's queue is empty and its dispatcher
// idle.
func (s *Stream) Synchronize() {
	// Enqueue a no-op marker and wait for it: everything submitted
	// before has then executed (in-order guarantee).
	ev := s.enqueue(opKernel, fault.Site{}, "sync", nil, func() error { return nil })
	_ = ev.Wait()
}

// Close drains the stream and terminates its dispatcher. Subsequent
// enqueues fail with ErrClosed. Callers that create streams per run on a
// long-lived device should Close them to release the dispatcher
// goroutine.
func (s *Stream) Close() { s.close() }

// close shuts the stream down after draining.
func (s *Stream) close() {
	s.mu.Lock()
	s.closed = true
	s.kick.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// MemcpyH2DPackedReal copies float64 host pixels into the device buffer
// packed two per complex128 word — the upload format of the r2c path. A
// w×h tile occupies ⌈wh/2⌉ words instead of wh, so the same bytes cross
// the bus but the tile holds half the device words, and the in-place
// r2c transform needs only the h×(w/2+1) half spectrum that fits in the
// same halved buffer.
func (s *Stream) MemcpyH2DPackedReal(dst *Buffer, src []float64, after ...*Event) *Event {
	return s.enqueue(opH2D, fault.SiteGPUCopyH2D, "H2D", after, func() error {
		if packedWords(len(src)) > len(dst.Data) {
			return fmt.Errorf("gpu: packed H2D copy of %d reals into %d-word buffer", len(src), len(dst.Data))
		}
		s.bandwidthDelay(len(src)*8, s.dev.cfg.H2DBytesPerSec)
		packReals(dst.Data, src)
		return nil
	})
}

// launch runs fn as a kernel on this stream, after consulting site's
// fault rules. The name labels the profiler span.
func (s *Stream) launch(site fault.Site, name string, fn func() error, after ...*Event) *Event {
	return s.enqueue(opKernel, site, name, after, fn)
}

// bandwidthDelay sleeps size/bw seconds if a bandwidth model is set.
func (s *Stream) bandwidthDelay(sizeBytes int, bw float64) {
	if bw <= 0 {
		return
	}
	time.Sleep(time.Duration(float64(sizeBytes) / bw * float64(time.Second)))
}
