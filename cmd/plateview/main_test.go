package main

import (
	"os"
	"path/filepath"
	"testing"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/stitch"
)

// TestLoadDirSource: plateview opens a genplate dataset through
// stitch.OpenDataset, and a truth.json whose grid does not validate fails
// with the same error as in cmd/stitch's TestOpenSourceDir.
func TestLoadDirSource(t *testing.T) {
	dir := t.TempDir()
	p := imagegen.DefaultParams(2, 3, 64, 48)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := stitch.WriteDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	meta := []byte(`{"rows":2,"cols":3,"tile_w":64,"tile_h":48,"overlap_x":0.2,"overlap_y":0.2,"truth_x":[1,2,3,4,5,6],"truth_y":[1,2,3,4,5,6]}`)
	if err := os.WriteFile(filepath.Join(dir, "truth.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	src, m, err := stitch.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.Grid().Rows != 2 || len(m.TruthX) != 6 || len(m.TruthY) != 6 {
		t.Errorf("grid %+v tx %v", src.Grid(), m.TruthX)
	}
	if _, _, err := stitch.OpenDataset(t.TempDir()); err == nil {
		t.Error("missing metadata should fail")
	}
	bad := t.TempDir()
	_ = os.WriteFile(filepath.Join(bad, "truth.json"), []byte("{"), 0o644)
	if _, _, err := stitch.OpenDataset(bad); err == nil {
		t.Error("corrupt metadata should fail")
	}
	_ = os.WriteFile(filepath.Join(bad, "truth.json"), []byte(`{"rows":0}`), 0o644)
	const want = "dataset metadata: tile: grid 0x0 must be positive"
	if _, _, err := stitch.OpenDataset(bad); err == nil || err.Error() != want {
		t.Errorf("invalid grid: error %v, want %q", err, want)
	}
}

// TestFreshDisplacementsMatchAMeasuredRun: plateview's fresh phase 1
// passes no planner, a stitch-style run passes a measuring one, and on a
// plate whose tile size the size rule pads (348×260 → 360×270) both
// transform in the same frame and find the same displacements.
func TestFreshDisplacementsMatchAMeasuredRun(t *testing.T) {
	ds, err := imagegen.Generate(imagegen.DefaultParams(4, 4, 348, 260))
	if err != nil {
		t.Fatal(err)
	}
	src := &stitch.MemorySource{DS: ds}
	fresh, err := freshDisplacements(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 2, Planner: fft.NewPlanner(fft.Measure)})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*stitch.Result{fresh, measured} {
		if res.TransformW != 360 || res.TransformH != 270 {
			t.Errorf("348x260 tiles transformed at %dx%d, want 360x270", res.TransformW, res.TransformH)
		}
	}
	for _, p := range src.Grid().Pairs() {
		a, _ := fresh.PairDisplacement(p)
		b, _ := measured.PairDisplacement(p)
		if a != b {
			t.Errorf("pair %v: plateview %+v, measured planner %+v", p, a, b)
		}
	}
}
