package main

import (
	"os"
	"path/filepath"
	"testing"

	"errors"
	"strings"

	"hybridstitch/internal/compose"
	"hybridstitch/internal/fault"
	"hybridstitch/internal/fft"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tile"
)

func TestParseBlend(t *testing.T) {
	cases := map[string]compose.Blend{
		"overlay": compose.BlendOverlay,
		"average": compose.BlendAverage,
		"linear":  compose.BlendLinear,
	}
	for name, want := range cases {
		got, err := parseBlend(name)
		if err != nil || got != want {
			t.Errorf("parseBlend(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseBlend("nope"); err == nil {
		t.Error("unknown blend should fail")
	}
}

func TestOpenSourceSynthetic(t *testing.T) {
	src, tx, ty, err := openSource("", "3x4", 64, 48, 7)
	if err != nil {
		t.Fatal(err)
	}
	g := src.Grid()
	if g.Rows != 3 || g.Cols != 4 || g.TileW != 64 || g.TileH != 48 {
		t.Errorf("grid = %+v", g)
	}
	if len(tx) != 12 || len(ty) != 12 {
		t.Errorf("truth lengths %d, %d", len(tx), len(ty))
	}
	if _, _, _, err := openSource("", "bad", 64, 48, 1); err == nil {
		t.Error("malformed -synthetic should fail")
	}
	if _, _, _, err := openSource("x", "3x4", 64, 48, 1); err == nil {
		t.Error("mutually exclusive flags should fail")
	}
	if _, _, _, err := openSource("", "", 64, 48, 1); err == nil {
		t.Error("no source should fail")
	}
}

func TestOpenSourceDir(t *testing.T) {
	dir := t.TempDir()
	p := imagegen.DefaultParams(2, 3, 48, 40)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := stitch.WriteDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	// Write the metadata the way genplate does.
	meta := []byte(`{"rows":2,"cols":3,"tile_w":48,"tile_h":40,"overlap_x":0.2,"overlap_y":0.2,"truth_x":[1,2,3,4,5,6],"truth_y":[1,2,3,4,5,6]}`)
	if err := os.WriteFile(filepath.Join(dir, "truth.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	src, tx, _, err := openSource(dir, "", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if src.Grid().Rows != 2 || src.Grid().Cols != 3 {
		t.Errorf("grid = %+v", src.Grid())
	}
	if len(tx) != 6 {
		t.Errorf("truth x = %v", tx)
	}
	img, err := src.ReadTile(src.Grid().CoordOf(0))
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 48 || img.H != 40 {
		t.Errorf("tile %dx%d", img.W, img.H)
	}
	// Missing metadata directory.
	if _, _, _, err := openSource(t.TempDir(), "", 0, 0, 0); err == nil {
		t.Error("missing truth.json should fail")
	}
	// Corrupt metadata.
	bad := t.TempDir()
	_ = os.WriteFile(filepath.Join(bad, "truth.json"), []byte("{"), 0o644)
	if _, _, _, err := openSource(bad, "", 0, 0, 0); err == nil {
		t.Error("corrupt truth.json should fail")
	}
	// Invalid grid in metadata.
	badGrid := t.TempDir()
	_ = os.WriteFile(filepath.Join(badGrid, "truth.json"), []byte(`{"rows":0}`), 0o644)
	if _, _, _, err := openSource(badGrid, "", 0, 0, 0); err == nil {
		t.Error("invalid grid metadata should fail")
	}
}

// TestDegradedSummary checks the post-phase-1 casualty block: one line
// per degraded tile and pair for a degraded run, empty for a clean one.
func TestDegradedSummary(t *testing.T) {
	if got := degradedSummary(&stitch.Result{}); got != "" {
		t.Errorf("clean run produced a summary: %q", got)
	}
	res := &stitch.Result{}
	res.DegradedTiles = append(res.DegradedTiles, stitch.DegradedTile{
		Coord: tile.Coord{Row: 4, Col: 4}, Err: errors.New("injected")})
	res.DegradedPairs = append(res.DegradedPairs, stitch.DegradedPair{
		Pair: tile.Pair{Coord: tile.Coord{Row: 4, Col: 4}, Dir: tile.West},
		Err:  errors.New("tile degraded")})
	out := degradedSummary(res)
	for _, want := range []string{"DEGRADED: 1 tiles, 1 pairs", "tile (4,4): injected", "pair"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestFaultSpecFlowEndToEnd mirrors main's fault wiring: a parsed spec
// drives a Degrade-mode run to completion with the expected casualty,
// and a malformed spec is rejected at parse time (what -fault-spec does
// before the run starts).
func TestFaultSpecFlowEndToEnd(t *testing.T) {
	if _, err := fault.ParseSpec("stitch.read:bogus-directive"); err == nil {
		t.Error("malformed -fault-spec value should fail to parse")
	}
	inj, err := fault.ParseSpec("stitch.read@r001_c001:always")
	if err != nil {
		t.Fatal(err)
	}
	src, _, _, err := openSource("", "3x3", 64, 48, 11)
	if err != nil {
		t.Fatal(err)
	}
	impl, err := stitch.ByName("pipelined-cpu")
	if err != nil {
		t.Fatal(err)
	}
	res, err := impl.Run(src, stitch.Options{
		Threads: 2, Faults: inj, MaxRetries: 1, Degrade: true,
	})
	if err != nil {
		t.Fatalf("degrade-mode run aborted: %v", err)
	}
	if len(res.DegradedTiles) != 1 || res.DegradedTiles[0].Coord != (tile.Coord{Row: 1, Col: 1}) {
		t.Fatalf("degraded tiles = %v, want exactly (1,1)", res.DegradedTiles)
	}
	if out := degradedSummary(res); !strings.Contains(out, "tile (1,1)") {
		t.Errorf("summary does not name the lost tile:\n%s", out)
	}
	if inj.Fired() == 0 {
		t.Error("injector never fired")
	}
}

// TestSharedWisdomSameSizeSameDisplacements mirrors main's -wisdom
// wiring on a plate of the paper's tile size: the first run's measuring
// planner chooses a transform size, the wisdom it exports carries the
// choice, and a second process importing it — its planner would
// otherwise measure afresh — transforms at the same size and writes the
// same -save-displacements file, byte for byte.
func TestSharedWisdomSameSizeSameDisplacements(t *testing.T) {
	src, _, _, err := openSource("", "1x2", 1392, 1040, 5)
	if err != nil {
		t.Fatal(err)
	}
	impl, err := stitch.ByName("pipelined-cpu")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var wisdom []byte
	var files [2][]byte
	var sizes [2][2]int
	for i := range files {
		planner := fft.NewPlanner(fft.Measure)
		if wisdom != nil {
			if err := planner.ImportWisdom(wisdom); err != nil {
				t.Fatal(err)
			}
		}
		res, err := impl.Run(src, stitch.Options{Threads: 2, FFTVariant: stitch.VariantReal, Planner: planner})
		if err != nil {
			t.Fatal(err)
		}
		if wisdom, err = planner.ExportWisdom(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "disp.json")
		if err := stitch.SaveResult(path, res); err != nil {
			t.Fatal(err)
		}
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		sizes[i] = [2]int{res.TransformW, res.TransformH}
	}
	if sizes[0][0] <= 1392 || sizes[0][1] <= 1040 {
		t.Errorf("1392x1040 tiles transformed at %dx%d, want a padded size", sizes[0][0], sizes[0][1])
	}
	if sizes[0] != sizes[1] {
		t.Errorf("transform size changed under shared wisdom: %v then %v", sizes[0], sizes[1])
	}
	if string(files[0]) != string(files[1]) {
		t.Error("displacement files differ between two runs sharing wisdom")
	}
}
