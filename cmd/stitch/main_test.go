package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridstitch/internal/compose"
	"hybridstitch/internal/fault"
	"hybridstitch/internal/fft"
	"hybridstitch/internal/global"
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
	// Invalid grid in metadata: the same error as plateview's (its
	// TestLoadDirSource), both from stitch.OpenDataset.
	badGrid := t.TempDir()
	_ = os.WriteFile(filepath.Join(badGrid, "truth.json"), []byte(`{"rows":0}`), 0o644)
	const want = "dataset metadata: tile: grid 0x0 must be positive"
	if _, _, _, err := openSource(badGrid, "", 0, 0, 0); err == nil || err.Error() != want {
		t.Errorf("invalid grid metadata: error %v, want %q", err, want)
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

// TestSaveResultIsHostIndependent: on a plate of the paper's tile size,
// which the size rule pads to 1440×1080, the -save-displacements file
// does not depend on who plans or on how busy the host is. Runs with
// estimate, measure and no planner, and one made while GOMAXPROCS
// spinning goroutines hog every core, write the same file, byte for
// byte.
func TestSaveResultIsHostIndependent(t *testing.T) {
	src, _, _, err := openSource("", "1x2", 1392, 1040, 5)
	if err != nil {
		t.Fatal(err)
	}
	impl, err := stitch.ByName("pipelined-cpu")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "disp.json")
	save := func(planner *fft.Planner) []byte {
		t.Helper()
		res, err := impl.Run(src, stitch.Options{Threads: 2, Planner: planner})
		if err != nil {
			t.Fatal(err)
		}
		if res.TransformW != 1440 || res.TransformH != 1080 {
			t.Errorf("1392x1040 tiles transformed at %dx%d, want 1440x1080", res.TransformW, res.TransformH)
		}
		if err := stitch.SaveResult(path, res); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	want := save(nil)
	for name, pl := range map[string]*fft.Planner{"estimate": fft.NewPlanner(fft.Estimate), "measure": fft.NewPlanner(fft.Measure)} {
		if got := save(pl); !bytes.Equal(got, want) {
			t.Errorf("%s planner wrote a different displacement file", name)
		}
	}
	stop := make(chan struct{})
	var hogs sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		hogs.Add(1)
		go func() {
			defer hogs.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	got := save(fft.NewPlanner(fft.Measure))
	close(stop)
	hogs.Wait()
	if !bytes.Equal(got, want) {
		t.Error("a run under a CPU hog wrote a different displacement file")
	}
}

// countingSource counts reads per tile.
type countingSource struct {
	stitch.Source
	mu    sync.Mutex
	reads map[tile.Coord]int
}

func (s *countingSource) ReadTile(c tile.Coord) (*tile.Gray16, error) {
	s.mu.Lock()
	s.reads[c]++
	s.mu.Unlock()
	return s.Source.ReadTile(c)
}

func TestPhase3ComposesOnce(t *testing.T) {
	// -out, -out-tiff and -highlight share one composite: each tile is
	// read once for all three files.
	ds, err := imagegen.Generate(imagegen.DefaultParams(3, 4, 64, 48))
	if err != nil {
		t.Fatal(err)
	}
	pl := &global.Placement{Grid: ds.Params.Grid, X: make([]int, len(ds.TruthX)), Y: make([]int, len(ds.TruthY))}
	for i := range pl.X {
		pl.X[i], pl.Y[i] = ds.TruthX[i]-ds.TruthX[0]+8, ds.TruthY[i]-ds.TruthY[0]+8
	}
	src := &countingSource{Source: &stitch.MemorySource{DS: ds}, reads: map[tile.Coord]int{}}
	dir := t.TempDir()
	out := phase3Outputs{png: filepath.Join(dir, "a.png"), tiff: filepath.Join(dir, "a.tif"),
		highlight: filepath.Join(dir, "h.png"), stretch: true}
	if err := phase3(nil, pl, src, compose.BlendLinear, out, nil); err != nil {
		t.Fatal(err)
	}
	g := ds.Params.Grid
	for i := 0; i < g.NumTiles(); i++ {
		if n := src.reads[g.CoordOf(i)]; n != 1 {
			t.Errorf("tile %v read %d times, want once", g.CoordOf(i), n)
		}
	}
	for _, path := range []string{out.png, out.tiff, out.highlight} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestPhase2SummaryKeepsMicroseconds: a sub-millisecond solve prints its
// duration, not "0s".
func TestPhase2SummaryKeepsMicroseconds(t *testing.T) {
	pl, err := global.Solve(&stitch.Result{Grid: tile.Grid{Rows: 1, Cols: 1, TileW: 8, TileH: 8}}, global.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := phase2Summary(412345*time.Nanosecond, pl)
	if !strings.HasPrefix(got, "phase 2: global positions in 412µs (") {
		t.Errorf("summary = %q, want the duration as 412µs", got)
	}
}
