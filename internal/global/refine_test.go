package global

import (
	"testing"

	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tile"
)

func TestRefineResultRepairsCorruptedPairs(t *testing.T) {
	p := imagegen.DefaultParams(3, 3, 128, 96)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	src := &stitch.MemorySource{DS: ds}
	res, err := (&stitch.SimpleCPU{}).Run(src, stitch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt two pairs with low-confidence garbage (the sparse-overlap
	// failure signature).
	bad := []tile.Pair{
		{Coord: tile.Coord{Row: 1, Col: 1}, Dir: tile.West},
		{Coord: tile.Coord{Row: 2, Col: 2}, Dir: tile.North},
	}
	for _, pr := range bad {
		setPair(res, pr, tile.Displacement{X: 0, Y: 0, Corr: 0.1})
	}
	n, err := RefineResult(res, src, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Errorf("refined %d pairs, want >= 2", n)
	}
	for _, pr := range bad {
		got, _ := res.PairDisplacement(pr)
		want := ds.TrueDisplacement(pr)
		if absInt(got.X-want.X) > 1 || absInt(got.Y-want.Y) > 1 {
			t.Errorf("pair %v refined to (%d,%d), truth (%d,%d)", pr, got.X, got.Y, want.X, want.Y)
		}
	}
}

func TestRefineResultDefaultExhaustive(t *testing.T) {
	p := imagegen.DefaultParams(2, 3, 128, 96)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	src := &stitch.MemorySource{DS: ds}
	res, err := (&stitch.SimpleCPU{}).Run(src, stitch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr := tile.Pair{Coord: tile.Coord{Row: 1, Col: 1}, Dir: tile.West}
	setPair(res, pr, tile.Displacement{X: 0, Y: 0, Corr: 0.05})
	if _, err := RefineResult(res, src, RefineOptions{}); err != nil {
		t.Fatal(err)
	}
	got, _ := res.PairDisplacement(pr)
	want := ds.TrueDisplacement(pr)
	if absInt(got.X-want.X) > 1 || absInt(got.Y-want.Y) > 1 {
		t.Errorf("exhaustive refine got (%d,%d), truth (%d,%d)", got.X, got.Y, want.X, want.Y)
	}
}

func TestRefineResultKeepsBetterOriginal(t *testing.T) {
	// A low-confidence but CORRECT pair: refinement must not make it
	// worse.
	p := imagegen.DefaultParams(2, 2, 128, 96)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	src := &stitch.MemorySource{DS: ds}
	res, err := (&stitch.SimpleCPU{}).Run(src, stitch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr := tile.Pair{Coord: tile.Coord{Row: 0, Col: 1}, Dir: tile.West}
	truth := ds.TrueDisplacement(pr)
	setPair(res, pr, tile.Displacement{X: truth.X, Y: truth.Y, Corr: 0.2})
	if _, err := RefineResult(res, src, RefineOptions{}); err != nil {
		t.Fatal(err)
	}
	got, _ := res.PairDisplacement(pr)
	if absInt(got.X-truth.X) > 1 || absInt(got.Y-truth.Y) > 1 {
		t.Errorf("refinement degraded a correct pair: (%d,%d) vs (%d,%d)", got.X, got.Y, truth.X, truth.Y)
	}
}

func TestRefineResultModelDeviationTrigger(t *testing.T) {
	// A confidently-WRONG pair: high correlation, displacement the stage
	// model calls geometrically impossible (the aliased-periodic-peak
	// signature). The classic low-confidence trigger never fires on it;
	// only MaxModelDeviation re-searches it from the prediction.
	p := imagegen.DefaultParams(3, 3, 128, 96)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	src := &stitch.MemorySource{DS: ds}
	res, err := (&stitch.SimpleCPU{}).Run(src, stitch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr := tile.Pair{Coord: tile.Coord{Row: 1, Col: 1}, Dir: tile.West}
	truth := ds.TrueDisplacement(pr)
	wrong := tile.Displacement{X: truth.X - 20, Y: truth.Y, Corr: 0.95}

	// Trigger disabled (the zero value): the confident lie survives.
	setPair(res, pr, wrong)
	if n, err := RefineResult(res, src, RefineOptions{}); err != nil || n != 0 {
		t.Fatalf("refined %d pairs (err %v) with the trigger disabled, want 0", n, err)
	}
	if got, _ := res.PairDisplacement(pr); got != wrong {
		t.Fatalf("pair rewritten to %+v with the trigger disabled", got)
	}

	// Trigger armed (10 px: above the ~2·jitter deviation honest pairs
	// can show, far below the 20 px lie): the pair is re-searched from
	// the stage-model prediction and lands on the truth.
	if n, err := RefineResult(res, src, RefineOptions{MaxModelDeviation: 10, Radius: 25}); err != nil || n != 1 {
		t.Fatalf("refined %d pairs (err %v), want exactly the implausible one", n, err)
	}
	got, _ := res.PairDisplacement(pr)
	if absInt(got.X-truth.X) > 1 || absInt(got.Y-truth.Y) > 1 {
		t.Errorf("re-searched displacement (%d,%d) not at truth (%d,%d)", got.X, got.Y, truth.X, truth.Y)
	}

	// A plausible confident pair (within the deviation budget) must be
	// left untouched even with the trigger armed.
	if n, err := RefineResult(res, src, RefineOptions{MaxModelDeviation: 10}); err != nil || n != 0 {
		t.Errorf("refined %d pairs (err %v) on a repaired result, want 0", n, err)
	}
}
