package stitch

import (
	"testing"

	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/obs"
)

// TestAutotuneCounterPublished guards the startRun/finishRun bridge
// ordering for the autotune decision counters: SimpleCPU constructs
// its aligner (where FFT plans are built and fft.autotune.* ticks)
// at the top of Run, so startRun must snapshot the baselines before
// that acquisition or every published delta is zero. The tile size is
// deliberately one no other test uses, so the process-global aligner
// pool cannot satisfy the acquisition without constructing plans.
func TestAutotuneCounterPublished(t *testing.T) {
	p := imagegen.DefaultParams(2, 2, 140, 76)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	if _, err := (SimpleCPU{}).Run(&MemorySource{DS: ds}, Options{Obs: rec}); err != nil {
		t.Fatal(err)
	}
	rec.Close()
	// Two outcomes, no third: every decision is serial or split.
	serial := rec.CounterValue(obs.CounterFFTAutotuneSerial)
	split := rec.CounterValue(obs.CounterFFTAutotuneSplit)
	if serial+split < 1 {
		t.Fatalf("run published no autotune decisions (serial=%d split=%d); "+
			"plan construction escaped the startRun baseline window", serial, split)
	}
}
