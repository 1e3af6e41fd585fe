package accuracy

import (
	"fmt"
	"testing"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/stitch"
)

// TestPlannedSizeKeepsAccuracy runs every named scenario at a tile size
// the FFT planner pads — 116×87 = 4·29 × 3·29, which a measuring planner
// transforms at 120×90 — through the full pipeline at the exact size and
// at the padded one, each forced by a wisdom record so the comparison
// does not depend on this host's timings. Tiles this small put every
// adversarial scenario on the edge (the thresholds are documented for
// 128×96, and `periodic` fails here at either size), and which pairs the
// stage-model refine then rescues or breaks turns on single pairs: one
// seed decides nothing. Over five seeds per scenario the padded frame
// may not find fewer pairs within 1 px in phase 1 — the stage this
// changes — nor place fewer tiles within 1 px on average (accdiff's two
// points of slack), nor lose more than one verdict against the
// documented thresholds. Each seed's numbers are logged.
func TestPlannedSizeKeepsAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("fifty full pipeline runs; run without -short")
	}
	const w, h, pw, ph, seeds = 116, 87, 120, 90, 5
	type tally struct {
		rawPairs, verdicts int
		tiles              float64
	}
	run := func(sc imagegen.Scenario, seed int64, tw, th int, sum *tally) Metrics {
		t.Helper()
		planner := fft.NewPlanner(fft.Estimate)
		rec := fmt.Sprintf(`[{"w":%d,"h":%d,"real":true,"pw":%d,"ph":%d}]`, w, h, tw, th)
		if err := planner.ImportWisdom([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		ds, err := sc.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		opts := PipelineOptions{}.withDefaults()
		src := &stitch.MemorySource{DS: ds}
		res, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: opts.Threads, FFTVariant: stitch.VariantReal, Planner: planner})
		if err != nil {
			t.Fatal(err)
		}
		if res.TransformW != tw || res.TransformH != th {
			t.Fatalf("%s: transformed at %dx%d, want %dx%d", sc.Name, res.TransformW, res.TransformH, tw, th)
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
			e, p := run(sc, seed, w, h, &exact), run(sc, seed, pw, ph, &padded)
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
