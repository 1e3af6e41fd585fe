package global

import (
	"hybridstitch/internal/pciam"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tile"
)

// RefineOptions tunes RefineResult.
type RefineOptions struct {
	// MinCorr: pairs at or above this confidence are left untouched.
	MinCorr float64
	// Radius bounds the hill climb around the stage-model prediction.
	Radius int
	// Greedy uses 8-neighborhood hill climbing instead of the default
	// exhaustive ±Radius window. Cheaper (a few CCF evaluations instead
	// of (2R+1)²) but only reliable when the stage model is within
	// ~2 px: fine texture puts local maxima on the CCF surface.
	Greedy bool
	// MaxModelDeviation, when > 0, additionally re-searches pairs whose
	// displacement deviates from the stage-model prediction by more than
	// this many pixels on either axis even when their correlation is
	// high — the prediction-seeded refinement of robust stitching.
	// Periodic textures and illumination fixed patterns produce
	// confidently-wrong peaks; a displacement the fitted stage model
	// calls geometrically impossible is replaced by the best
	// positive-correlation displacement near the prediction.
	MaxModelDeviation int
}

func (o RefineOptions) withDefaults() RefineOptions {
	if o.MinCorr == 0 {
		o.MinCorr = 0.5
	}
	if o.Radius == 0 {
		o.Radius = 6
	}
	return o
}

// RefineResult replaces every low-confidence displacement in res with a
// CCF search seeded at the per-direction median (the stage model) — the
// MIST-style repair pass between phases 1 and 2. It returns the number
// of pairs refined. The source must serve the same tiles phase 1 read.
func RefineResult(res *stitch.Result, src stitch.Source, opts RefineOptions) (int, error) {
	opts = opts.withDefaults()
	g := res.Grid

	// Linear stage model from the confident pairs: captures preset
	// overlap plus systematic row/column-dependent errors (thermal
	// drift, skew). Falls back to nominal for directions with no
	// confident pairs.
	sm := FitStageModel(res, opts.MinCorr)

	refined := 0
	for _, p := range g.Pairs() {
		d, ok := res.PairDisplacement(p)
		start := sm.Predict(p)
		if (p.Dir == tile.West && sm.ConfidentWest == 0) ||
			(p.Dir == tile.North && sm.ConfidentNorth == 0) {
			start = g.NominalDisplacement(p.Dir)
		}
		// Two triggers: low confidence (the classic featureless-overlap
		// repair) and, optionally, geometric implausibility — a
		// confident displacement the stage model puts more than
		// MaxModelDeviation px from its prediction (aliased periodic
		// peak, illumination fixed-pattern lock).
		lowConf := !ok || d.Corr < opts.MinCorr
		implausible := ok && !lowConf && opts.MaxModelDeviation > 0 &&
			(absInt(d.X-start.X) > opts.MaxModelDeviation || absInt(d.Y-start.Y) > opts.MaxModelDeviation)
		if !lowConf && !implausible {
			continue
		}
		a, err := src.ReadTile(p.Neighbor())
		if err != nil {
			return refined, err
		}
		b, err := src.ReadTile(p.Coord)
		if err != nil {
			return refined, err
		}
		var nd tile.Displacement
		if opts.Greedy {
			nd = pciam.Refine(a, b, start, opts.Radius, 0)
		} else {
			nd = pciam.ExhaustiveRefine(a, b, start, opts.Radius)
		}
		if implausible {
			// The measurement is geometrically impossible: any positive
			// correlation near the prediction beats it, regardless of
			// how confident the impossible peak was.
			if nd.Corr <= 0 {
				continue
			}
		} else if ok && d.Corr >= nd.Corr {
			// Keep the original if the search found nothing better than
			// the measurement (possible when the measurement was
			// low-confidence but correct).
			continue
		}
		setPair(res, p, nd)
		refined++
	}
	return refined, nil
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// setPair mirrors the private Result helper for use from this package.
func setPair(r *stitch.Result, p tile.Pair, d tile.Displacement) {
	i := r.Grid.Index(p.Coord)
	if p.Dir == tile.West {
		r.West[i] = d
	} else {
		r.North[i] = d
	}
}
