// Package pairguard is the stitchlint fixture for the pairguard
// analyzer: acquired resources (device buffers, governor allocations,
// spans, pooled aligners) must reach their release or an ownership
// transfer on every path. delta.go holds the cases the old syntactic
// bufferfree check could not see.
package pairguard

import (
	"hybridstitch/internal/gpu"
	"hybridstitch/internal/memgov"
)

// leakNeverFreed allocates and forgets: the classic pool leak.
func leakNeverFreed(d *gpu.Device) error {
	b, err := d.Alloc(64) // want "never freed or ownership-transferred"
	if err != nil {
		return err
	}
	_ = b.Words()
	return nil
}

// leakEarlyReturn frees on the happy path but leaks when validation
// fails after the allocation succeeded.
func leakEarlyReturn(d *gpu.Device, n int64) error {
	b, err := d.Alloc(n)
	if err != nil {
		return err
	}
	if n > 1024 {
		return nil // want "return leaks the gpu.Device.Alloc result"
	}
	return b.Free()
}

// leakSpectrumNeverFreed: half-spectrum (r2c) buffers obey the same pool
// discipline as full transforms.
func leakSpectrumNeverFreed(d *gpu.Device) error {
	b, err := d.AllocSpectrum(96, 128) // want "never freed or ownership-transferred"
	if err != nil {
		return err
	}
	_ = b.Words()
	return nil
}

// okSpectrumFreed is the clean half-spectrum case.
func okSpectrumFreed(d *gpu.Device) error {
	b, err := d.AllocSpectrum(96, 128)
	if err != nil {
		return err
	}
	return b.Free()
}

// leakDiscarded drops the buffer on the floor at the call site.
func leakDiscarded(d *gpu.Device) {
	d.Alloc(64) // want "discarded"
}

// leakBlank can never free through the blank identifier.
func leakBlank(d *gpu.Device) {
	_, _ = d.Alloc(64) // want "assigned to _"
}

// leakGovernor applies the same rule to host-memory reservations.
func leakGovernor(g *memgov.Governor) {
	a, err := g.Alloc(1 << 20) // want "never freed or ownership-transferred"
	if err != nil {
		return
	}
	_ = a
}

// okFreed is the minimal clean case.
func okFreed(d *gpu.Device) error {
	b, err := d.Alloc(64)
	if err != nil {
		return err
	}
	return b.Free()
}

// okDeferFreed discharges through a deferred closure.
func okDeferFreed(d *gpu.Device) error {
	b, err := d.Alloc(64)
	if err != nil {
		return err
	}
	defer func() { _ = b.Free() }()
	b.Data[0] = 1
	return nil
}

// okTransferredToCall hands the buffer to a pool-style release helper.
func okTransferredToCall(d *gpu.Device, release func(*gpu.Buffer)) error {
	b, err := d.Alloc(64)
	if err != nil {
		return err
	}
	release(b)
	return nil
}

// okReturned transfers ownership to the caller.
func okReturned(d *gpu.Device) (*gpu.Buffer, error) {
	return d.Alloc(64)
}

// okReturnedVar transfers ownership through a named result.
func okReturnedVar(d *gpu.Device) (*gpu.Buffer, error) {
	b, err := d.Alloc(64)
	if err != nil {
		return nil, err
	}
	return b, nil
}

type holder struct{ buf *gpu.Buffer }

// okStoredInField transfers ownership into a longer-lived structure.
func okStoredInField(d *gpu.Device, h *holder) error {
	b, err := d.Alloc(64)
	if err != nil {
		return err
	}
	h.buf = b
	return nil
}

// okAppended transfers ownership into a slice (the device pool pattern).
func okAppended(d *gpu.Device, bufs []*gpu.Buffer) ([]*gpu.Buffer, error) {
	b, err := d.Alloc(64)
	if err != nil {
		return bufs, err
	}
	return append(bufs, b), nil
}

// okSentOnChannel transfers ownership to whoever receives.
func okSentOnChannel(d *gpu.Device, ch chan *gpu.Buffer) error {
	b, err := d.Alloc(64)
	if err != nil {
		return err
	}
	ch <- b
	return nil
}

// okSuppressed documents an intentional leak with the mandatory reason.
func okSuppressed(d *gpu.Device) {
	//lint:allow pairguard fixture exercises the suppression path
	b, err := d.Alloc(64)
	if err != nil {
		return
	}
	_ = b.Words()
}
