package machine

import (
	"fmt"
	"testing"

	"hybridstitch/internal/gpu"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/stitch"
)

// TestScheduleRowPerImplementation keeps the schedule table and the
// stitch registry in step: one row per implementation, no row without
// one.
func TestScheduleRowPerImplementation(t *testing.T) {
	registered := map[string]bool{}
	for _, s := range stitch.Implementations() {
		registered[s.Name()] = true
		if _, ok := schedules[s.Name()]; !ok {
			t.Errorf("%s has no schedule row", s.Name())
		}
	}
	for name := range schedules {
		if !registered[name] {
			t.Errorf("schedule row %s has no implementation", name)
		}
	}
}

// TestModelTransformsMatchExecutor counts the per-tile chains the model
// builds — redundant band rows included — by the tile chain's last step
// in the recorded schedule, and checks the count against the transforms
// the executor computes on the same plate, for every implementation that
// reuses transforms. Fiji folds its transforms into the pair step, so it
// has no tile-chain transform to count.
func TestModelTransformsMatchExecutor(t *testing.T) {
	ds, err := imagegen.Generate(imagegen.DefaultParams(3, 4, 64, 48))
	if err != nil {
		t.Fatal(err)
	}
	src := &stitch.MemorySource{DS: ds}
	g := src.Grid()
	devs := []*gpu.Device{gpu.New(gpu.Config{Name: "GPU0"}), gpu.New(gpu.Config{Name: "GPU1"})}
	defer devs[0].Close()
	defer devs[1].Close()

	for _, c := range []struct {
		impl          string
		gpus, sockets int
	}{
		{"simple-cpu", 0, 1},
		{"mt-cpu", 0, 1},
		{"simple-gpu", 1, 1},
		{"pipelined-cpu", 0, 1},
		{"pipelined-cpu", 0, 2},
		{"pipelined-cpu", 0, g.Rows + 1},
		{"pipelined-gpu", 1, 1},
		{"pipelined-gpu", 2, 1},
	} {
		t.Run(fmt.Sprintf("%s-G%d-S%d", c.impl, c.gpus, c.sockets), func(t *testing.T) {
			impl, err := stitch.ByName(c.impl)
			if err != nil {
				t.Fatal(err)
			}
			res, err := impl.Run(src, stitch.Options{Threads: 2, Devices: devs[:c.gpus], Sockets: c.sockets})
			if err != nil {
				t.Fatal(err)
			}
			_, spans, err := PredictWithTrace(RunSpec{Impl: c.impl, Grid: g, Threads: 2, GPUs: c.gpus, Sockets: c.sockets})
			if err != nil {
				t.Fatal(err)
			}
			tileSteps := schedules[c.impl].tile
			transform := tileSteps[len(tileSteps)-1].name
			modelled := 0
			for _, s := range spans {
				if s.Name == transform {
					modelled++
				}
			}
			if modelled != res.TransformsComputed {
				t.Errorf("model builds %d %q steps, executor computed %d transforms", modelled, transform, res.TransformsComputed)
			}
		})
	}
}
