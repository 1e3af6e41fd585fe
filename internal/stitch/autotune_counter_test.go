package stitch

import (
	"testing"

	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/obs"
)

// TestAutotuneCounterPublished guards the startRun/publishRun bridge
// for the split-rule counters: every 2-D transform call counts the
// branch it took, serial or split, so a SimpleCPU run — which
// transforms every tile — must publish at least one call.
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
	serial := rec.CounterValue(obs.CounterFFTAutotuneSerial)
	split := rec.CounterValue(obs.CounterFFTAutotuneSplit)
	if serial+split < 1 {
		t.Fatalf("run published no transform calls (serial=%d split=%d): "+
			"the calls escaped the startRun baseline window", serial, split)
	}
}
