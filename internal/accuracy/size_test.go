package accuracy

import (
	"math"
	"testing"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/pciam"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tile"
)

// TestPlannedSizeKeepsAccuracy runs every named scenario at a tile size
// the size rule pads — 116×87 = 4·29 × 3·29, transformed at 120×90 —
// through the full pipeline, against the same pipeline fed phase 1 at
// the exact size, which exactSizeResult computes (the rule has no
// override). Tiles this small put every adversarial scenario on the edge
// (the thresholds are documented for 128×96, and `periodic` fails here
// at either size), and which pairs the stage-model refine then rescues
// or breaks turns on single pairs: one seed decides nothing. Over five
// seeds per scenario the padded frame may not find fewer pairs within
// 1 px in phase 1 — the stage this changes — nor place fewer tiles
// within 1 px on average (accdiff's two points of slack), nor lose more
// than one verdict against the documented thresholds. Each seed's
// numbers are logged.
func TestPlannedSizeKeepsAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("fifty full pipeline runs; run without -short")
	}
	const w, h, pw, ph, seeds = 116, 87, 120, 90, 5
	type tally struct {
		rawPairs, verdicts int
		tiles              float64
	}
	run := func(sc imagegen.Scenario, seed int64, padded bool, sum *tally) Metrics {
		t.Helper()
		ds, err := sc.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		opts := PipelineOptions{}.withDefaults()
		src := &stitch.MemorySource{DS: ds}
		var res *stitch.Result
		if padded {
			res, err = (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: opts.Threads})
			if err != nil {
				t.Fatal(err)
			}
			if res.TransformW != pw || res.TransformH != ph {
				t.Fatalf("%s: transformed at %dx%d, want %dx%d", sc.Name, res.TransformW, res.TransformH, pw, ph)
			}
		} else {
			res = exactSizeResult(t, src)
		}
		raw, _ := ScorePairs(ds, res)
		out, err := solveAndScore(ds, src, res, opts)
		if err != nil {
			t.Fatal(err)
		}
		m := out.Metrics
		sum.rawPairs += raw
		sum.tiles += m.TilesWithin1Frac / seeds
		if len(CheckThresholds(Snapshot{Scenarios: map[string]Metrics{sc.Name: m}}, DefaultThresholds())) == 0 {
			sum.verdicts++
		}
		m.PairsWithin1 = raw // report phase 1's own score, before the refine
		return m
	}
	for _, sc := range imagegen.Scenarios(stdRows, stdCols, w, h) {
		var exact, padded tally
		for seed := int64(1); seed <= seeds; seed++ {
			e, p := run(sc, seed, false, &exact), run(sc, seed, true, &padded)
			t.Logf("%-18s seed %d: phase-1 pairs within 1 px %d → %d of %d, tiles within 1 px %.3f → %.3f, RMS %.2f → %.2f px",
				sc.Name, seed, e.PairsWithin1, p.PairsWithin1, e.Pairs, e.TilesWithin1Frac, p.TilesWithin1Frac, e.PlacementRMS, p.PlacementRMS)
		}
		t.Logf("%-18s %dx%d → %dx%d: phase-1 pairs %d → %d, mean tiles within 1 px %.3f → %.3f, verdicts passed %d → %d of %d",
			sc.Name, w, h, pw, ph, exact.rawPairs, padded.rawPairs, exact.tiles, padded.tiles, exact.verdicts, padded.verdicts, seeds)
		if padded.rawPairs < exact.rawPairs || padded.tiles < exact.tiles-fracAbsSlack || padded.verdicts < exact.verdicts-1 {
			t.Errorf("%s: padding %dx%d to %dx%d costs accuracy: phase-1 pairs %d → %d, mean tiles within 1 px %.3f → %.3f, verdicts %d → %d",
				sc.Name, w, h, pw, ph, exact.rawPairs, padded.rawPairs, exact.tiles, padded.tiles, exact.verdicts, padded.verdicts)
		}
	}
}

// exactSizeResult is phase 1 of src in the real layout at the tiles' own
// size, from exported primitives only: frame staging, a serial fft plan,
// the NCC, the peak and the CCF resolution — what the pipeline computes
// when the size rule keeps a tile size.
func exactSizeResult(t *testing.T, src stitch.Source) *stitch.Result {
	t.Helper()
	g := src.Grid()
	w, h := g.TileW, g.TileH
	plan, err := fft.NewRealPlan2DOpts(h, w, fft.Real2DOpts{Exec: fft.ExecSerial})
	if err != nil {
		t.Fatal(err)
	}
	pix := make([]float64, w*h)
	tiles := map[tile.Coord]*tile.Gray16{}
	spectra := map[tile.Coord][]complex128{}
	read := func(c tile.Coord) (*tile.Gray16, []complex128) {
		if tiles[c] == nil {
			img, err := src.ReadTile(c)
			if err != nil {
				t.Fatal(err)
			}
			img.ToFloatFrame(pix, w)
			spec := make([]complex128, h*(w/2+1))
			if err := plan.Forward(spec, pix); err != nil {
				t.Fatal(err)
			}
			tiles[c], spectra[c] = img, spec
		}
		return tiles[c], spectra[c]
	}
	res := &stitch.Result{Grid: g, TransformW: w, TransformH: h,
		West: make([]tile.Displacement, g.NumTiles()), North: make([]tile.Displacement, g.NumTiles())}
	for i := range res.West {
		res.West[i].Corr, res.North[i].Corr = math.NaN(), math.NaN()
	}
	for _, p := range g.Pairs() {
		a, fa := read(p.Neighbor())
		b, fb := read(p.Coord)
		ncc := make([]complex128, len(fa))
		pciam.NCCSpectrum(ncc, fa, fb)
		if err := plan.Inverse(pix, ncc); err != nil {
			t.Fatal(err)
		}
		i, _ := pciam.MaxAbsReal(pix)
		d := pciam.ResolveIn(a, b, i%w, i/w, w, h)
		if p.Dir == tile.West {
			res.West[g.Index(p.Coord)] = d
		} else {
			res.North[g.Index(p.Coord)] = d
		}
	}
	return res
}
