package fft

import (
	"math"
	"math/bits"
)

// Transform-size planning: the paper's §VI.A padding optimisation as a
// rule, orthogonal to the spectrum layout. A w×h tile may be padded into
// any larger frame before its forward transform (the correlation peak is
// then read modulo the frame), so the size is free to be whichever
// nearby one transforms cheapest — at the paper's 1392×1040 = 2⁴·3·29 ×
// 2⁴·5·13 that is 1440×1080, 7 % more words for well under half the
// time. The answer is a pure function of the tile size and the layout:
// the same on every host, under any load, for every caller.

const (
	// sizeReach bounds the candidates of an axis of length n to
	// [n, n + n/sizeReach]: past an eighth more words per axis the extra
	// memory traffic outweighs any butterfly saving.
	sizeReach = 8
	// sizeWin is the fraction of the exact size's modelled cost a padded
	// candidate must come under to displace it: the model is coarse, and
	// a tile size that is already fast must keep its exact transform —
	// and so its displacements, bit for bit.
	sizeWin = 0.8
	// sizeTie is the factor of the best modelled cost within which
	// candidates count as tied; the smallest frame among them wins, so a
	// model error between near-equal sizes cannot move the choice far.
	sizeTie = 1.1
)

// sizeEntry is the frame a tile is transformed in.
type sizeEntry struct{ PW, PH int }

// TransformSize returns the frame (pw ≥ w, ph ≥ h) in which w×h tiles
// are transformed under the real (r2c half spectrum) or complex layout:
// the cheapest candidate frame under a static cost model (lengthCost),
// with pickSize's two margins. Everything that sizes buffers, plans or
// peak coordinates for a tile asks it, so they all agree. A degenerate
// tile transforms at its own size.
func TransformSize(w, h int, real bool) (pw, ph int) {
	if w < 2 || h < 1 {
		return w, h
	}
	ws, hs := sizeCandidates(w), sizeCandidates(h)
	cost := map[int]float64{}
	for _, n := range hs {
		cost[n] = lengthCost(n)
	}
	for _, pw := range ws {
		n := rowLen(pw, real)
		cost[n] = lengthCost(n)
	}
	e := pickSize(ws, hs, real, cost)
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

// rowLen is the length of the 1-D transform a row of a pw-wide frame
// takes: an even-length real row runs as one packed half-length
// transform.
func rowLen(pw int, real bool) int {
	if real && pw%2 == 0 {
		return pw / 2
	}
	return pw
}

// The cost model, in real floating-point operations per transformed
// element. A complex multiply is 6 of them, a complex add 2.
const (
	// wordCost is charged per element of every transform, whatever its
	// factors: the strided gather and the leaf loads of the recursion,
	// and, for a transform inside a 2-D frame, its share of the two
	// transposes. Being per element, it is what makes a larger frame
	// cost more at equal butterfly work.
	wordCost = 120
	// genericCost scales the generic prime butterfly's operation count:
	// its modulo-stepped twiddle walk over a stack array runs about three
	// times slower per operation than the unrolled radix-2/3/4/5/8 ones.
	genericCost = 3
)

// radixCost is the operation count per element of one combine pass of
// radix r in the mixed-radix recursion (radix.go): twiddle multiplies
// plus the butterfly, divided by the r elements it produces.
func radixCost(r int) float64 {
	switch r {
	case 2: // 1 cmul, 2 cadd
		return 5
	case 3: // 6 cmul, 6 cadd
		return 16
	case 4: // 4 cmul, 8 cadd
		return 10
	case 5: // 20 cmul, 20 cadd
		return 32
	case 8: // 12 cmul, 24 cadd
		return 15
	}
	// combineGeneric: r-1 twiddles plus r outputs of r-1 multiply-adds.
	p := float64(r)
	return genericCost * ((p*p-1)*6 + p*(p-1)*2) / p
}

// lengthCost is the modelled cost of one length-n transform under the
// algorithm chooseStrategy runs for n: the mixed-radix passes of its
// factors, radix2's log₂n passes, Bluestein's two power-of-two
// transforms and three pointwise products, or the direct O(n²) sum.
func lengthCost(n int) float64 {
	fn := float64(n)
	switch chooseStrategy(n) {
	case stratDFT:
		return fn * (wordCost + 8*fn)
	case stratRadix2:
		return pow2Cost(n)
	case stratBluestein:
		m := nextPow2(2*n - 1)
		return 2*pow2Cost(m) + 6*float64(2*n+m)
	}
	c := float64(wordCost)
	for _, r := range mergePow2Radices(factorize(n)) {
		c += radixCost(r)
	}
	return fn * c
}

// pow2Cost is radix2InPlace's cost: log₂n passes of one complex multiply
// and two adds per butterfly.
func pow2Cost(n int) float64 {
	return float64(n) * (wordCost + 5*float64(bits.Len(uint(n))-1))
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
