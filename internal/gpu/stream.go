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
	opD2H
	opKernel
)

func (k opKind) String() string {
	switch k {
	case opH2D:
		return "memcpyH2D"
	case opD2H:
		return "memcpyD2H"
	default:
		return "kernel"
	}
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
func (s *Stream) enqueue(kind opKind, name string, after []*Event, fn func() error) *Event {
	ev := newEvent()
	cmd := &command{kind: kind, name: name, after: after, fn: fn, ev: ev}
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
	var sem chan struct{}
	switch cmd.kind {
	case opH2D, opD2H:
		sem = s.dev.copySem
	default:
		sem = s.dev.kernelSem
	}
	sem <- struct{}{}
	start := s.dev.now()
	err := s.injectFault(cmd)
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

// injectFault consults the device's fault injector for this command. The
// injected error takes the place of the command's own result, so it
// propagates through events and cross-stream dependencies exactly like a
// real device failure. Sites (all from the internal/fault registry):
// gpu.copy.h2d, gpu.copy.d2h, and gpu.kernel.{fft,ncc,reduce,<name>};
// the detail is "stream/op".
func (s *Stream) injectFault(cmd *command) error {
	in := s.dev.cfg.Faults
	if in == nil {
		return nil
	}
	var site string
	switch cmd.kind {
	case opH2D:
		site = fault.SiteGPUCopyH2D
	case opD2H:
		site = fault.SiteGPUCopyD2H
	default:
		switch cmd.name {
		case "fft2d", "ifft2d", "rfft2d", "irfft2d":
			site = fault.SiteGPUKernelFFT
		case "ncc", "ncc+ifft2d+maxabs", "ncc+irfft2d+maxabs":
			// The fused displacement kernels inject at the NCC site.
			site = fault.SiteGPUKernelNCC
		case "maxabs":
			site = fault.SiteGPUKernelReduce
		default:
			site = fault.KernelSite(cmd.name)
		}
	}
	return in.Hit(site, s.name+"/"+cmd.name)
}

// Synchronize blocks until the stream's queue is empty and its dispatcher
// idle.
func (s *Stream) Synchronize() {
	// Enqueue a no-op marker and wait for it: everything submitted
	// before has then executed (in-order guarantee).
	ev := s.enqueue(opKernel, "sync", nil, func() error { return nil })
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

// MemcpyH2D asynchronously copies host data into a device buffer.
func (s *Stream) MemcpyH2D(dst *Buffer, src []complex128, after ...*Event) *Event {
	return s.enqueue(opH2D, "H2D", after, func() error {
		if len(src) > len(dst.Data) {
			return fmt.Errorf("gpu: H2D copy of %d words into %d-word buffer", len(src), len(dst.Data))
		}
		s.bandwidthDelay(len(src)*16, s.dev.cfg.H2DBytesPerSec)
		copy(dst.Data, src)
		return nil
	})
}

// MemcpyH2DReal widens float64 host pixels into the device buffer as
// complex values — the upload format of tile images.
func (s *Stream) MemcpyH2DReal(dst *Buffer, src []float64, after ...*Event) *Event {
	return s.enqueue(opH2D, "H2D", after, func() error {
		if len(src) > len(dst.Data) {
			return fmt.Errorf("gpu: H2D copy of %d words into %d-word buffer", len(src), len(dst.Data))
		}
		s.bandwidthDelay(len(src)*8, s.dev.cfg.H2DBytesPerSec)
		for i, v := range src {
			dst.Data[i] = complex(v, 0)
		}
		return nil
	})
}

// MemcpyH2DPackedReal copies float64 host pixels into the device buffer
// packed two per complex128 word — the upload format of the r2c path. A
// w×h tile occupies ⌈wh/2⌉ words instead of wh, so the same bytes cross
// the bus but the tile holds half the device words, and the in-place
// r2c transform needs only the h×(w/2+1) half spectrum that fits in the
// same halved buffer.
func (s *Stream) MemcpyH2DPackedReal(dst *Buffer, src []float64, after ...*Event) *Event {
	return s.enqueue(opH2D, "H2D", after, func() error {
		if packedWords(len(src)) > len(dst.Data) {
			return fmt.Errorf("gpu: packed H2D copy of %d reals into %d-word buffer", len(src), len(dst.Data))
		}
		s.bandwidthDelay(len(src)*8, s.dev.cfg.H2DBytesPerSec)
		packReals(dst.Data, src)
		return nil
	})
}

// MemcpyD2H asynchronously copies a device buffer back to host memory.
func (s *Stream) MemcpyD2H(dst []complex128, src *Buffer, after ...*Event) *Event {
	return s.enqueue(opD2H, "D2H", after, func() error {
		if len(dst) > len(src.Data) {
			return fmt.Errorf("gpu: D2H copy of %d words from %d-word buffer", len(dst), len(src.Data))
		}
		s.bandwidthDelay(len(dst)*16, s.dev.cfg.D2HBytesPerSec)
		copy(dst, src.Data[:len(dst)])
		return nil
	})
}

// Launch runs fn as a kernel on this stream. The name labels the profiler
// span.
func (s *Stream) Launch(name string, fn func() error, after ...*Event) *Event {
	return s.enqueue(opKernel, name, after, fn)
}

// bandwidthDelay sleeps size/bw seconds if a bandwidth model is set.
func (s *Stream) bandwidthDelay(sizeBytes int, bw float64) {
	if bw <= 0 {
		return
	}
	time.Sleep(time.Duration(float64(sizeBytes) / bw * float64(time.Second)))
}
