// delta.go seeds the leaks that separate pairguard from the retired
// syntactic bufferfree analyzer, as the committed proof of the delta.
// bufferfree judged a `return` safe whenever ANY Free/transfer appeared
// lexically before it, and trusted ANY `if err != nil` guard that
// mentioned the acquisition's error object. Both rules are refuted here:
// the leaking paths below were invisible to it, and the ok* twins show
// the same shapes written correctly.
package pairguard

import (
	"hybridstitch/internal/gpu"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/pciam"
)

// leakReleaseOnWrongBranch frees on the fast path only. The Free sits
// lexically BEFORE the final return, which satisfied bufferfree's
// position test — but the two live on mutually exclusive branches, so
// the slow path leaks.
func leakReleaseOnWrongBranch(d *gpu.Device, fast bool) error {
	b, err := d.Alloc(64)
	if err != nil {
		return err
	}
	if fast {
		return b.Free()
	}
	return nil // want "return leaks the gpu.Device.Alloc result"
}

// okReleaseOnEveryBranch is the same shape with both branches closed.
func okReleaseOnEveryBranch(d *gpu.Device, fast bool) error {
	b, err := d.Alloc(64)
	if err != nil {
		return err
	}
	if fast {
		return b.Free()
	}
	b.Data[0] = 1
	return b.Free()
}

// leakErrReuse reuses err for a later operation. The second
// `if err != nil` guard says nothing about the allocation anymore, yet
// bufferfree accepted it because the guard mentioned the same err
// object; the buffer leaks on step's error path.
func leakErrReuse(d *gpu.Device, step func() error) error {
	b, err := d.Alloc(64)
	if err != nil {
		return err
	}
	err = step()
	if err != nil {
		return err // want "return leaks the gpu.Device.Alloc result"
	}
	return b.Free()
}

// okErrReuseFreed is the corrected twin: release before the early exit.
func okErrReuseFreed(d *gpu.Device, step func() error) error {
	b, err := d.Alloc(64)
	if err != nil {
		return err
	}
	err = step()
	if err != nil {
		_ = b.Free()
		return err
	}
	return b.Free()
}

// leakPanicPath frees on the normal path but panics past the buffer on
// the absurd-size path: only a defer survives an unwind.
func leakPanicPath(d *gpu.Device, n int64) {
	b, err := d.Alloc(n)
	if err != nil {
		return
	}
	if n > 1<<30 {
		panic("absurd tile size") // want "panic unwinds past the gpu.Device.Alloc result"
	}
	_ = b.Free()
}

// okDeferCoversPanic is the same shape released by defer, which
// discharges the unwind path too.
func okDeferCoversPanic(d *gpu.Device, n int64) {
	b, err := d.Alloc(n)
	if err != nil {
		return
	}
	defer b.Free()
	if n > 1<<30 {
		panic("absurd tile size")
	}
}

// leakReassigned overwrites the only handle to a live buffer: the first
// allocation can never be freed after the second binds.
func leakReassigned(d *gpu.Device) error {
	b, err := d.Alloc(64)
	if err != nil {
		return err
	}
	b, err = d.Alloc(128) // want "reassignment loses the gpu.Device.Alloc result"
	if err != nil {
		return err
	}
	return b.Free()
}

// leakReceiverUse: calling a method on the buffer is not a transfer —
// the word count comes back, the buffer stays owed.
func leakReceiverUse(d *gpu.Device) int64 {
	b, err := d.Alloc(16) // want "never freed or ownership-transferred"
	if err != nil {
		return 0
	}
	return b.Words()
}

// leakSpanEarlyReturn abandons a span on the error path: the golden
// span-tree stays open and the track never closes.
func leakSpanEarlyReturn(rec *obs.Recorder, work func() error) error {
	sp := rec.StartSpan(obs.TrackRun, obs.SpanStitch)
	if err := work(); err != nil {
		return err // want "return leaks the obs.Recorder.StartSpan result"
	}
	sp.End()
	return nil
}

// okSpanDeferred is the canonical span shape.
func okSpanDeferred(rec *obs.Recorder, work func() error) error {
	sp := rec.StartSpan(obs.TrackRun, obs.SpanStitch)
	defer sp.End()
	return work()
}

// okSpanNilGuarded: on the sp == nil arm nothing was recorded and
// nothing is owed (obs spans are nil-safe by design).
func okSpanNilGuarded(rec *obs.Recorder, work func() error) error {
	sp := rec.StartSpan(obs.TrackRun, obs.SpanStitch)
	if sp == nil {
		return work()
	}
	err := work()
	sp.End()
	return err
}

// leakChildSpan: child spans owe an End exactly like roots.
func leakChildSpan(parent *obs.Span, work func() error) error {
	sp := parent.Child(obs.SpanPair)
	if err := work(); err != nil {
		return err // want "return leaks the obs.Span.Child result"
	}
	sp.End()
	return nil
}

// leakAlignerNeverClosed checks the pooled-aligner pairing: a
// constructed aligner that is never Closed never returns to the pool.
func leakAlignerNeverClosed(w, h int, opts pciam.Options) error {
	al, err := pciam.NewAligner(w, h, opts) // want "never freed or ownership-transferred"
	if err != nil {
		return err
	}
	_ = al
	return nil
}

// okAlignerDeferClosed releases by a deferred Close.
func okAlignerDeferClosed(w, h int, opts pciam.Options) error {
	al, err := pciam.NewAligner(w, h, opts)
	if err != nil {
		return err
	}
	defer al.Close()
	return nil
}

// okAlignerClosed releases by the paired Close method.
func okAlignerClosed(w, h int, opts pciam.Options) error {
	al, err := pciam.NewRealAligner(w, h, opts)
	if err != nil {
		return err
	}
	al.Close()
	return nil
}
