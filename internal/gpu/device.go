// Package gpu implements a software GPU device: the CUDA-shaped substrate
// the hybrid pipeline schedules against. It reproduces the *semantics*
// that shaped the paper's results — per-stream in-order command queues,
// asynchronous host↔device copies with a limited number of copy engines,
// bounded kernel concurrency (cuFFT on Fermi could not run kernels
// concurrently), a hard device-memory capacity that forces buffer pooling
// and reference counting, and a profiler timeline (the NVIDIA Visual
// Profiler views of Figs 7 and 9). Kernels execute real math on host
// goroutines standing in for the SM array.
//
// What it deliberately does not reproduce is CUDA's absolute speed; the
// calibrated discrete-event model in internal/machine carries the
// paper-scale timing, while this device carries the concurrency behavior
// and produces bit-identical results to the CPU path.
package gpu

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hybridstitch/internal/fault"
	"hybridstitch/internal/obs"
)

// ErrOutOfMemory is returned by Alloc when the device pool is exhausted —
// the condition whose avoidance drives the paper's buffer-pool and
// reference-counting design.
var ErrOutOfMemory = errors.New("gpu: out of device memory")

// ErrClosed is returned when enqueueing on a closed device.
var ErrClosed = errors.New("gpu: device closed")

// Config describes one simulated card.
type Config struct {
	// Name labels the device in profiles ("GPU0").
	Name string
	// MemWords is the device memory capacity in complex128 words. The
	// Tesla C2070's 6 GB hold ≈258 full-tile transforms of the paper's
	// 1392×1040 tiles — an order of magnitude fewer than the 2478-tile
	// grid needs, hence the buffer pool and reference counting.
	MemWords int64
	// CopyEngines bounds concurrent DMA transfers (the C2070 has 2:
	// one per direction).
	CopyEngines int
	// KernelSlots bounds concurrently executing kernels. 1 models the
	// Fermi-era cuFFT register-pressure serialization the paper works
	// around; Kepler/Hyper-Q behavior raises it.
	KernelSlots int
	// H2DBytesPerSec, if positive, injects a transfer delay of
	// size/bandwidth per host-to-device copy, modeling PCIe. Zero means
	// no artificial delay. There is no device-to-host copy to delay: the
	// only datum coming back per pair is the fused kernel's Reduction.
	H2DBytesPerSec float64
	// Profile enables the timeline recorder.
	Profile bool
	// Obs, if set, records this device's timeline into a shared
	// observability recorder (implies Profile): spans land on tracks
	// "<Name>/<stream>/<kind>" and the device's epoch is aligned to the
	// recorder's, so GPU and CPU spans share one clock. The caller owns
	// the recorder's lifecycle.
	Obs *obs.Recorder
	// Faults, if set, makes allocations, spectrum frees, uploads and
	// kernel launches error points (fault.SiteGPUAlloc,
	// SiteGPUAllocSpectrum, SiteGPUFreeSpectrum, SiteGPUCopyH2D,
	// SiteGPUKernelFFT, SiteGPUKernelNCC). Nil costs nothing.
	Faults *fault.Injector
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "GPU"
	}
	if c.MemWords <= 0 {
		c.MemWords = 64 << 20 // 1 GiB of complex128
	}
	if c.CopyEngines <= 0 {
		c.CopyEngines = 2
	}
	if c.KernelSlots <= 0 {
		c.KernelSlots = 1
	}
	return c
}

// Device is one simulated GPU card.
type Device struct {
	cfg   Config
	epoch time.Time

	memMu   sync.Mutex
	memUsed int64
	memPeak int64
	allocs  int64
	oomSeen bool

	copySem   chan struct{}
	kernelSem chan struct{}

	streamMu sync.Mutex
	streams  []*Stream
	closed   bool

	timeline *Timeline

	// now is the dispatcher clock, a seam so tests can freeze time and
	// prove span ordering survives timestamp collisions.
	now func() time.Time
}

// New creates a device.
func New(cfg Config) *Device {
	cfg = cfg.withDefaults()
	d := &Device{
		cfg:       cfg,
		epoch:     time.Now(),
		copySem:   make(chan struct{}, cfg.CopyEngines),
		kernelSem: make(chan struct{}, cfg.KernelSlots),
		now:       time.Now,
	}
	switch {
	case cfg.Obs != nil:
		d.epoch = cfg.Obs.Epoch() // one clock with the rest of the run
		d.timeline = newTimeline(cfg.Obs, cfg.Name)
	case cfg.Profile:
		d.timeline = newOwnTimeline(d.epoch)
	}
	return d
}

// Name returns the device label.
func (d *Device) Name() string { return d.cfg.Name }

// MemWords returns the configured capacity.
func (d *Device) MemWords() int64 { return d.cfg.MemWords }

// Buffer is a device-memory allocation. Its Data lives in host RAM (the
// simulator has no real VRAM) but is accounted against the device pool,
// and the pipeline treats it as device-resident: host code only writes
// it through MemcpyH2DPackedReal and only reads what a kernel reports
// back (Reduction).
type Buffer struct {
	dev      *Device
	Data     []complex128
	words    int64
	freed    bool
	spectrum bool // allocated via AllocSpectrum (r2c half-spectrum buffer)
	mu       sync.Mutex
}

// Words returns the allocation size.
func (b *Buffer) Words() int64 { return b.words }

// Alloc reserves words of device memory, failing with ErrOutOfMemory if
// the pool cannot hold the request.
func (d *Device) Alloc(words int64) (*Buffer, error) {
	if words <= 0 {
		return nil, fmt.Errorf("gpu: invalid allocation of %d words", words)
	}
	if err := d.cfg.Faults.Hit(fault.SiteGPUAlloc, d.cfg.Name); err != nil {
		return nil, err
	}
	d.memMu.Lock()
	defer d.memMu.Unlock()
	if d.memUsed+words > d.cfg.MemWords {
		d.oomSeen = true
		return nil, fmt.Errorf("%w: %d used + %d requested > %d capacity",
			ErrOutOfMemory, d.memUsed, words, d.cfg.MemWords)
	}
	d.memUsed += words
	d.allocs++
	if d.memUsed > d.memPeak {
		d.memPeak = d.memUsed
	}
	return &Buffer{dev: d, Data: make([]complex128, words), words: words}, nil
}

// AllocSpectrum reserves a half-spectrum transform buffer for h×w real
// tiles: h·(w/2+1) complex128 words, roughly half a full complex
// transform — the device-memory saving of the r2c path. It is a distinct
// fault site (gpu.alloc.spectrum) layered on top of the generic
// gpu.alloc one, so injection specs can target r2c buffers specifically;
// the buffer's Free passes through gpu.free.spectrum the same way.
func (d *Device) AllocSpectrum(h, w int) (*Buffer, error) {
	if h <= 0 || w < 2 {
		return nil, fmt.Errorf("gpu: invalid spectrum allocation for %dx%d tiles", h, w)
	}
	if err := d.cfg.Faults.Hit(fault.SiteGPUAllocSpectrum, d.cfg.Name); err != nil {
		return nil, err
	}
	b, err := d.Alloc(int64(h) * int64(w/2+1))
	if err != nil {
		return nil, err
	}
	b.spectrum = true
	return b, nil
}

// Free returns a buffer to the pool. Double frees are rejected. For
// half-spectrum buffers the free itself is an error point
// (gpu.free.spectrum): an injected fault leaves the buffer allocated.
func (b *Buffer) Free() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.freed {
		return fmt.Errorf("gpu: double free of %d-word buffer", b.words)
	}
	if b.spectrum {
		if err := b.dev.cfg.Faults.Hit(fault.SiteGPUFreeSpectrum, b.dev.cfg.Name); err != nil {
			return err
		}
	}
	b.freed = true
	d := b.dev
	d.memMu.Lock()
	d.memUsed -= b.words
	d.memMu.Unlock()
	b.Data = nil
	return nil
}

// MemStats reports current usage, peak usage, allocation count, and
// whether any allocation has ever failed.
func (d *Device) MemStats() (used, peak, allocs int64, oomSeen bool) {
	d.memMu.Lock()
	defer d.memMu.Unlock()
	return d.memUsed, d.memPeak, d.allocs, d.oomSeen
}

// Timeline returns the profiler timeline (nil unless Config.Profile or
// Config.Obs).
func (d *Device) Timeline() *Timeline { return d.timeline }

// Synchronize blocks until every stream has drained its queue.
func (d *Device) Synchronize() {
	d.streamMu.Lock()
	streams := append([]*Stream(nil), d.streams...)
	d.streamMu.Unlock()
	for _, s := range streams {
		s.Synchronize()
	}
}

// Close drains and shuts down all streams. The device rejects new work
// afterwards.
func (d *Device) Close() {
	d.streamMu.Lock()
	if d.closed {
		d.streamMu.Unlock()
		return
	}
	d.closed = true
	streams := append([]*Stream(nil), d.streams...)
	d.streamMu.Unlock()
	for _, s := range streams {
		s.close()
	}
	// An owned timeline recorder (Config.Profile without Config.Obs) has a
	// flusher goroutine to release; a shared recorder stays with its owner.
	d.timeline.Close()
}
