package fft

import (
	"math"
	"math/rand"
	"time"
)

// Transform-size planning: the paper's §VI.A padding optimisation as a
// planner decision, orthogonal to the spectrum layout. A w×h tile may be
// zero-padded into any larger frame before its forward transform (the
// correlation peak is then read modulo the frame), so the size is free to
// be whichever nearby one this machine transforms fastest — at the
// paper's 1392×1040 = 2⁴·3·29 × 2⁴·5·13 that is 1440×1080, 7 % more
// words for well under half the time.

const (
	// sizeReach bounds the candidates of an axis of length n to
	// [n, n + n/sizeReach]: past an eighth more words per axis the extra
	// memory traffic outweighs any butterfly saving.
	sizeReach = 8
	// sizeWin is the fraction of the exact size's modelled cost a padded
	// candidate must come under to displace it: the 1-D timings behind
	// the model are noisy, and a tile size that is already fast must keep
	// its exact transform — and so its displacements, bit for bit.
	sizeWin = 0.8
	// sizeTie is the factor of the best modelled cost within which
	// candidates count as tied; the smallest frame among them wins, so
	// timing noise between near-equal sizes cannot move the choice.
	sizeTie = 1.1
)

// sizeKey identifies a transform-size decision: a tile size and a
// spectrum layout.
type sizeKey struct {
	W, H int
	Real bool
}

// sizeEntry is the frame the tile is transformed in.
type sizeEntry struct{ PW, PH int }

// TransformSize returns the frame (pw ≥ w, ph ≥ h) in which w×h tiles
// should be transformed under the real (r2c half spectrum) or complex
// layout. The first answer for a (tile size, layout) is a wisdom record —
// every later call, and every planner that imports the exported wisdom,
// gets the same one — so all parties sizing buffers, plans and peak
// coordinates off one planner agree. An estimate-mode planner has no
// timings to choose by and answers the tile size itself, as does any
// planner for a degenerate tile.
func (pl *Planner) TransformSize(w, h int, real bool) (pw, ph int) {
	key := sizeKey{W: w, H: h, Real: real}
	pl.mu.Lock()
	e, ok := pl.sizes[key]
	pl.mu.Unlock()
	if ok {
		return e.PW, e.PH
	}
	e = pl.decideSize(w, h, real)
	pl.mu.Lock()
	if first, ok := pl.sizes[key]; ok {
		e = first // a concurrent caller decided first; its record stands
	} else {
		pl.sizes[key] = e
	}
	pl.mu.Unlock()
	return e.PW, e.PH
}

// sizeCandidates lists the lengths an axis of length n may be padded to:
// n itself, then the even 7-smooth lengths up to n + n/sizeReach (even,
// so a real row still takes the packed half-length transform).
func sizeCandidates(n int) []int {
	out := []int{n}
	for m := n + 2 - n%2; m <= n+n/sizeReach; m += 2 {
		if IsFastLength(m) {
			out = append(out, m)
		}
	}
	return out
}

// sizeRounds is how many interleaved timing rounds a size decision runs
// per measureReps of the planner's mode.
const sizeRounds = 8

// rowLen is the length of the 1-D transform a row of a pw-wide frame
// takes: an even-length real row runs as one packed half-length
// transform.
func rowLen(pw int, real bool) int {
	if real && pw%2 == 0 {
		return pw / 2
	}
	return pw
}

// decideSize times the 1-D transforms the candidate frames are made of
// and picks among the frames. An estimate-mode planner, a degenerate
// tile, and a failed measurement all answer the tile size.
func (pl *Planner) decideSize(w, h int, real bool) sizeEntry {
	if pl.mode == Estimate || w < 2 || h < 1 {
		return sizeEntry{PW: w, PH: h}
	}
	ws, hs := sizeCandidates(w), sizeCandidates(h)
	lengths := append([]int(nil), hs...)
	for _, pw := range ws {
		lengths = append(lengths, rowLen(pw, real))
	}
	t0 := time.Now()
	cost, err := pl.timeLengths(lengths)
	pl.mu.Lock()
	pl.planningTime += time.Since(t0)
	pl.mu.Unlock()
	if err != nil {
		return sizeEntry{PW: w, PH: h}
	}
	return pickSize(ws, hs, real, cost)
}

// pickSize ranks the frames ws × hs (the exact size first in each) by a
// separable cost model over the 1-D costs — ph row transforms plus one
// column transform per spectrum column — and applies the two margins:
// the exact size unless the best frame comes under sizeWin of its cost,
// else the smallest frame within sizeTie of the best.
func pickSize(ws, hs []int, real bool, cost map[int]float64) sizeEntry {
	type ranked struct {
		sizeEntry
		cost float64
	}
	var all []ranked
	best := math.Inf(1)
	for _, pw := range ws {
		cols := pw
		if real {
			cols = pw/2 + 1
		}
		for _, ph := range hs {
			c := float64(ph)*cost[rowLen(pw, real)] + float64(cols)*cost[ph]
			all = append(all, ranked{sizeEntry{PW: pw, PH: ph}, c})
			best = math.Min(best, c)
		}
	}
	if best > sizeWin*all[0].cost { // all[0] is the exact size
		return all[0].sizeEntry
	}
	var pick ranked
	for _, r := range all {
		if r.cost > sizeTie*best {
			continue
		}
		if d := r.PW*r.PH - pick.PW*pick.PH; pick.PW == 0 || d < 0 || (d == 0 && r.cost < pick.cost) {
			pick = r
		}
	}
	return pick.sizeEntry
}

// timeLengths measures one forward transform of every given length and
// returns the minimum seen per length, in nanoseconds. The rounds are
// interleaved — every length is timed once per round — so a stretch in
// which the machine runs slow (a busy sibling thread, a descheduled
// vCPU) either covers a round of every length or is escaped by every
// length in another round: costs measured at different times, as the
// strategy wisdom's are, could not be compared across lengths with a
// 20 % margin.
func (pl *Planner) timeLengths(lengths []int) (map[int]float64, error) {
	plans := map[int]*Plan{}
	cost := map[int]float64{}
	longest := 0
	for _, n := range lengths {
		p, err := pl.Plan(n, Forward, PlanOpts{})
		if err != nil {
			return nil, err
		}
		plans[n], cost[n] = p, math.Inf(1)
		longest = max(longest, n)
	}
	rng := rand.New(rand.NewSource(int64(longest)))
	input, work := make([]complex128, longest), make([]complex128, longest)
	for i := range input {
		input[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	for r := 0; r <= sizeRounds*pl.mode.measureReps(); r++ { // round 0 warms up
		for _, n := range lengths {
			p := plans[n]
			copy(work[:n], input)
			t0 := time.Now()
			_ = p.Execute(work[:n]) // the plan was built for n
			if d := float64(time.Since(t0)); r > 0 && d < cost[n] {
				cost[n] = d
			}
		}
	}
	return cost, nil
}
