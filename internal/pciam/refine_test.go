package pciam

import (
	"testing"

	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/tile"
)

// refinePair cuts one adjacent pair with known truth from a generated
// dataset: smooth microscopy-like content, so the CCF surface has the
// gradient hill climbing needs (the pure-noise shiftedPair texture
// decorrelates at 1 px and gives a delta-spike surface).
func refinePair(t *testing.T) (a, b *tile.Gray16, truth tile.Displacement) {
	t.Helper()
	p := imagegen.DefaultParams(1, 2, 128, 96)
	ds, err := imagegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := tile.Pair{Coord: tile.Coord{Row: 0, Col: 1}, Dir: tile.West}
	return ds.Tile(pr.Neighbor()), ds.Tile(pr.Coord), ds.TrueDisplacement(pr)
}

func TestRefineFindsTrueShiftFromNearbyStart(t *testing.T) {
	a, b, truth := refinePair(t)
	// Greedy climbing is reliable from ≤2 px away (fine texture puts
	// local maxima further out — that regime belongs to
	// ExhaustiveRefine, which RefineResult defaults to).
	for _, start := range []tile.Displacement{
		{X: truth.X - 2, Y: truth.Y - 1},
		{X: truth.X + 2, Y: truth.Y + 1},
		{X: truth.X, Y: truth.Y},
	} {
		got := Refine(a, b, start, 6, 0)
		if absI(got.X-truth.X) > 1 || absI(got.Y-truth.Y) > 1 {
			t.Errorf("start (%d,%d): refined to (%d,%d), truth (%d,%d), corr=%.3f",
				start.X, start.Y, got.X, got.Y, truth.X, truth.Y, got.Corr)
		}
	}
}

func TestExhaustiveRefineFindsTruthFromFar(t *testing.T) {
	a, b, truth := refinePair(t)
	start := tile.Displacement{X: truth.X + 4, Y: truth.Y - 3}
	got := ExhaustiveRefine(a, b, start, 6)
	if got.X != truth.X || got.Y != truth.Y {
		t.Errorf("exhaustive refined to (%d,%d), truth (%d,%d)", got.X, got.Y, truth.X, truth.Y)
	}
}

func TestRefineRespectsRadius(t *testing.T) {
	a, b, truth := refinePair(t)
	start := tile.Displacement{X: truth.X - 20, Y: truth.Y} // truth 20 px away
	got := Refine(a, b, start, 3, 0)
	if absI(got.X-start.X) > 3 || absI(got.Y-start.Y) > 3 {
		t.Errorf("refinement escaped the radius: (%d,%d)", got.X, got.Y)
	}
}

func TestRefineMatchesExhaustive(t *testing.T) {
	// On the smooth CCF surface greedy and exhaustive must agree.
	a, b, truth := refinePair(t)
	start := tile.Displacement{X: truth.X - 2, Y: truth.Y + 2}
	greedy := Refine(a, b, start, 5, 0)
	exact := ExhaustiveRefine(a, b, start, 5)
	if greedy.X != exact.X || greedy.Y != exact.Y {
		t.Errorf("greedy (%d,%d) vs exhaustive (%d,%d)", greedy.X, greedy.Y, exact.X, exact.Y)
	}
}

func TestRefineDegenerate(t *testing.T) {
	flat := tile.NewGray16(16, 16)
	got := Refine(flat, flat, tile.Displacement{X: 4, Y: 0}, 3, 0)
	if got.Corr > 0 {
		t.Errorf("flat tiles refined to corr %.3f", got.Corr)
	}
	got = ExhaustiveRefine(flat, flat, tile.Displacement{X: 4, Y: 0}, 2)
	if got.Corr > 0 {
		t.Errorf("flat exhaustive corr %.3f", got.Corr)
	}
}
