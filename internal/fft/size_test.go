package fft

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestTransformSizeKeepsFastSizes pins the sizeWin margin: tile sizes
// that are already fast keep their exact transform in both layouts, so
// their displacements are the exact-size ones (these are the accuracy
// suite's, the benchmark's and the common camera sizes).
func TestTransformSizeKeepsFastSizes(t *testing.T) {
	for _, sz := range [][2]int{{64, 48}, {128, 96}, {256, 192}, {512, 384}, {640, 480}, {1024, 768}, {1280, 1024}, {2048, 1536}} {
		for _, real := range []bool{false, true} {
			if pw, ph := TransformSize(sz[0], sz[1], real); pw != sz[0] || ph != sz[1] {
				t.Errorf("%dx%d real=%v planned at %dx%d, want the exact size", sz[0], sz[1], real, pw, ph)
			}
		}
	}
}

// TestTransformSizePadsAwkwardSizes: sizes carrying a factor of 29 or 13
// — the paper's tile and scaled-down ones — move to an even 7-smooth
// frame within reach, the same one in both layouts.
func TestTransformSizePadsAwkwardSizes(t *testing.T) {
	if got, want := sizeCandidates(1392), []int{1392, 1400, 1440, 1458, 1470, 1500, 1512, 1536}; !reflect.DeepEqual(got, want) {
		t.Errorf("sizeCandidates(1392) = %v, want %v", got, want)
	}
	for _, c := range [][4]int{
		{1392, 1040, 1440, 1080},
		{696, 520, 720, 540},
		{348, 260, 360, 270},
		{232, 174, 240, 180},
		{174, 130, 180, 144},
		{116, 87, 120, 90},
	} {
		for _, real := range []bool{false, true} {
			if pw, ph := TransformSize(c[0], c[1], real); pw != c[2] || ph != c[3] {
				t.Errorf("%dx%d real=%v planned at %dx%d, want %dx%d", c[0], c[1], real, pw, ph, c[2], c[3])
			}
		}
	}
}

// TestPickSizeMargins pins the selection rule on fabricated costs, free
// of this machine's timings: a frame must undercut the exact size's modelled
// cost by a fifth to displace it (sizeWin), and among frames within a
// tenth of the best the smallest wins (sizeTie), the cheaper of two
// equally small ones.
func TestPickSizeMargins(t *testing.T) {
	ws, hs := []int{100, 104, 108}, []int{50, 54}
	// Complex layout: cost(pw, ph) = ph·c[pw] + pw·c[ph].
	pick := func(c map[int]float64) sizeEntry { return pickSize(ws, hs, false, c) }
	flat := map[int]float64{100: 10, 104: 10, 108: 10, 50: 1, 54: 1}
	if got := pick(flat); got != (sizeEntry{100, 50}) {
		t.Errorf("equal row costs: picked %v, want the exact size", got)
	}
	// Exact models at 50·10 + 100·1 = 600; 104×50 at 50·8 + 104 = 504,
	// 0.84 of it — not enough.
	near := map[int]float64{100: 10, 104: 8, 108: 10, 50: 1, 54: 1}
	if got := pick(near); got != (sizeEntry{100, 50}) {
		t.Errorf("a frame 16%% cheaper displaced the exact size: %v", got)
	}
	// 104×50 at 429 wins, and 108×50 at 408 — the best, 5 % cheaper,
	// inside the tie — does not, being larger.
	clear := map[int]float64{100: 10, 104: 6.5, 108: 6, 50: 1, 54: 1}
	if got := pick(clear); got != (sizeEntry{104, 50}) {
		t.Errorf("picked %v, want 104x50: the smallest frame within a tenth of the best", got)
	}
	// 108×50 at 308 leaves 104×50 outside the tie.
	far := map[int]float64{100: 10, 104: 6.5, 108: 4, 50: 1, 54: 1}
	if got := pick(far); got != (sizeEntry{108, 50}) {
		t.Errorf("picked %v, want 108x50: more than a tenth cheaper than 104x50", got)
	}
	// Real layout: an even width's rows cost the half-length transform.
	half := map[int]float64{50: 10, 52: 2, 54: 10}
	if got := pickSize(ws, hs, true, half); got != (sizeEntry{104, 50}) {
		t.Errorf("real layout picked %v, want 104x50 on the 52-point row cost", got)
	}
}

// TestLengthCostFollowsTheAlgorithm pins the cost model's shape on the
// lengths tiles decide between: a smooth length beats the 29- and
// 13-factor ones it pads, a power of two beats the smooth lengths a
// little above it, and a length Bluestein takes (134 = 2·67) costs more
// than the mixed-radix neighbour beside it.
func TestLengthCostFollowsTheAlgorithm(t *testing.T) {
	for _, c := range [][2]int{{720, 696}, {1080, 1040}, {1440, 1392}, {120, 116}, {128, 140}, {512, 540}, {136, 134}} {
		if lengthCost(c[0]) >= lengthCost(c[1]) {
			t.Errorf("lengthCost(%d) = %.0f, not below lengthCost(%d) = %.0f", c[0], lengthCost(c[0]), c[1], lengthCost(c[1]))
		}
	}
	if s := chooseStrategy(134); s != stratBluestein {
		t.Errorf("134 = 2·67 runs %v, want bluestein", s)
	}
}

// TestNothingReadsTheClock: no decision in this package is timed — not
// the transform size, not a length's algorithm, not whether a call
// splits its passes. A non-test file importing "time" is a new timed
// decision.
func TestNothingReadsTheClock(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		ast, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range ast.Imports {
			if imp.Path.Value == `"time"` {
				t.Errorf("%s imports time", f)
			}
		}
	}
}
