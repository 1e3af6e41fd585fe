package fft

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

// TestTransformSizeKeepsFastSizes pins the sizeWin margin: tile sizes
// that are already fast keep their exact transform on every fresh
// measuring planner, so their displacements cannot move with timing
// noise (these are the accuracy suite's and the benchmark's sizes).
func TestTransformSizeKeepsFastSizes(t *testing.T) {
	if raceBuild {
		t.Skip("instrumented timings are not the machine's")
	}
	for trial := 0; trial < 20; trial++ {
		pl := NewPlanner(Measure)
		for _, sz := range [][2]int{{128, 96}, {256, 192}, {512, 384}} {
			for _, real := range []bool{false, true} {
				if pw, ph := pl.TransformSize(sz[0], sz[1], real); pw != sz[0] || ph != sz[1] {
					t.Errorf("trial %d: %dx%d real=%v planned at %dx%d, want the exact size", trial, sz[0], sz[1], real, pw, ph)
				}
			}
		}
	}
}

// TestTransformSizePadsAwkwardSizes: sizes carrying a factor of 29 or 13
// (the paper's tile and a scaled-down one) move to an even 7-smooth
// frame within reach, in both layouts; an estimate-mode planner, which
// has no timings, keeps the exact size.
func TestTransformSizePadsAwkwardSizes(t *testing.T) {
	if got, want := sizeCandidates(1392), []int{1392, 1400, 1440, 1458, 1470, 1500, 1512, 1536}; !reflect.DeepEqual(got, want) {
		t.Errorf("sizeCandidates(1392) = %v, want %v", got, want)
	}
	pl := NewPlanner(Measure)
	for _, sz := range [][2]int{{1392, 1040}, {116, 87}} {
		for _, real := range []bool{false, true} {
			pw, ph := pl.TransformSize(sz[0], sz[1], real)
			t.Logf("%dx%d real=%v -> %dx%d", sz[0], sz[1], real, pw, ph)
			for _, d := range [][2]int{{pw, sz[0]}, {ph, sz[1]}} {
				if p, n := d[0], d[1]; p <= n || p > n+n/sizeReach || p%2 != 0 || !IsFastLength(p) {
					t.Errorf("%dx%d real=%v: axis %d padded to %d, want an even 7-smooth length in (%d, %d]", sz[0], sz[1], real, n, p, n, n+n/sizeReach)
				}
			}
			if ew, eh := NewPlanner(Estimate).TransformSize(sz[0], sz[1], real); ew != sz[0] || eh != sz[1] {
				t.Errorf("estimate planner sized %dx%d at %dx%d", sz[0], sz[1], ew, eh)
			}
		}
	}
}

// TestPickSizeMargins pins the selection rule on fabricated costs, free
// of this machine's timings: a frame must undercut the exact size's
// modelled cost by a fifth to displace it (sizeWin), and among frames
// within a tenth of the best the smallest wins (sizeTie), the cheaper of
// two equally small ones.
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

// TestTransformSizeIsWisdom: the decision is made once per planner —
// concurrent first callers included — and travels with the wisdom, so a
// planner of any mode that imports it answers the same size; the export
// is stable under a round trip.
func TestTransformSizeIsWisdom(t *testing.T) {
	pl := NewPlanner(Measure)
	const callers = 8
	var got [callers][2]int
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i][0], got[i][1] = pl.TransformSize(116, 87, true)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("caller %d sized 116x87 at %v, caller 0 at %v", i, got[i], got[0])
		}
	}
	blob, err := pl.ExportWisdom()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Estimate, Measure} {
		fresh := NewPlanner(mode)
		if err := fresh.ImportWisdom(blob); err != nil {
			t.Fatal(err)
		}
		if pw, ph := fresh.TransformSize(116, 87, true); [2]int{pw, ph} != got[0] {
			t.Errorf("%v planner with imported wisdom sized 116x87 at %dx%d, want %v", mode, pw, ph, got[0])
		}
		if fresh.WisdomSize() != pl.WisdomSize() {
			t.Errorf("imported %d records, exported %d", fresh.WisdomSize(), pl.WisdomSize())
		}
		again, err := fresh.ExportWisdom()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Errorf("%v planner: wisdom changed under an import/export round trip", mode)
		}
	}
}

// TestWisdomImportsOldAndForcedRecords: a file written before size
// records existed still imports and its strategies serve the size
// decision, a hand-written size record forces that size on any planner,
// and a record that would shrink the tile is refused.
func TestWisdomImportsOldAndForcedRecords(t *testing.T) {
	const old = `[
  {"n": 58, "dir": 0, "strategy": "mixed", "cost_ns": 0, "mode": "estimate"},
  {"n": 60, "dir": 0, "strategy": "mixed", "cost_ns": 812, "mode": "measure"},
  {"n": 64, "dir": 1, "strategy": "stockham", "cost_ns": 417, "mode": "measure"}
]`
	pl := NewPlanner(Measure)
	if err := pl.ImportWisdom([]byte(old)); err != nil {
		t.Fatalf("pre-size wisdom file: %v", err)
	}
	if pl.WisdomSize() != 3 {
		t.Fatalf("imported %d records, want 3", pl.WisdomSize())
	}
	if p, err := pl.Plan(64, Inverse, PlanOpts{}); err != nil || p.Strategy() != "stockham" {
		t.Errorf("imported strategy not used: %v, %v", p, err)
	}
	if pw, ph := pl.TransformSize(116, 87, true); pw < 116 || ph < 87 {
		t.Errorf("116x87 sized at %dx%d", pw, ph)
	}

	forced := NewPlanner(Measure)
	if err := forced.ImportWisdom([]byte(`[{"w": 128, "h": 96, "pw": 144, "ph": 100}, {"w": 116, "h": 87, "real": true, "pw": 116, "ph": 87}]`)); err != nil {
		t.Fatal(err)
	}
	if pw, ph := forced.TransformSize(128, 96, false); pw != 144 || ph != 100 {
		t.Errorf("forced record ignored: 128x96 sized at %dx%d", pw, ph)
	}
	if pw, ph := forced.TransformSize(116, 87, true); pw != 116 || ph != 87 {
		t.Errorf("forced exact record ignored: 116x87 sized at %dx%d", pw, ph)
	}
	if pw, ph := forced.TransformSize(128, 96, true); pw != 128 || ph != 96 {
		t.Errorf("a complex-layout record leaked into the real layout: %dx%d", pw, ph)
	}
	if err := NewPlanner(Estimate).ImportWisdom([]byte(`[{"w": 128, "h": 96, "pw": 120, "ph": 96}]`)); err == nil {
		t.Error("a size record smaller than its tile should be refused")
	}
}
