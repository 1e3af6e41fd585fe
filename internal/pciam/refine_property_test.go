package pciam

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridstitch/internal/tile"
)

// smoothField renders a sum of wide Gaussian blobs — a smooth,
// non-periodic surface whose NCC between two crops is unimodal with its
// global maximum exactly at the true crop offset. Crops of this field
// give the refine search a CCF surface with a known, provable optimum.
func smoothField(w, h int) *tile.Gray16 {
	f := tile.NewGray16(w, h)
	blobs := []struct{ cx, cy, sigma, amp float64 }{
		{20, 15, 12, 9000},
		{60, 30, 16, 12000},
		{35, 60, 10, 8000},
		{80, 65, 14, 11000},
		{50, 45, 20, 7000},
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 3000.0
			for _, b := range blobs {
				dx, dy := float64(x)-b.cx, float64(y)-b.cy
				v += b.amp * math.Exp(-(dx*dx+dy*dy)/(2*b.sigma*b.sigma))
			}
			f.Set(x, y, uint16(v))
		}
	}
	return f
}

// fieldPair cuts two overlapping crops of the smooth field such that b's
// origin sits at exactly (tx, ty) in a's frame — the displacement
// convention of ccfRegion/OverlapRegions. At that offset the crops share
// identical pixels, so the CCF is exactly 1 there and strictly below 1
// everywhere else.
func fieldPair(tx, ty int) (a, b *tile.Gray16) {
	field := smoothField(96, 80)
	const w, h = 64, 56
	a = field.SubRect(12, 12, w, h)
	b = field.SubRect(12+tx, 12+ty, w, h)
	return a, b
}

// TestRefineNeverLeavesRadius: whatever the surface (here: pure noise,
// where every CCF sample is junk), both searches must return a
// displacement within ±radius of the start on both axes.
func TestRefineNeverLeavesRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := tile.NewGray16(48, 40)
	b := tile.NewGray16(48, 40)
	for i := range a.Pix {
		a.Pix[i] = uint16(rng.Intn(65536))
		b.Pix[i] = uint16(rng.Intn(65536))
	}
	for iter := 0; iter < 40; iter++ {
		start := tile.Displacement{X: rng.Intn(41) - 20, Y: rng.Intn(41) - 20}
		radius := 1 + rng.Intn(8)
		for name, got := range map[string]tile.Displacement{
			"Refine":           Refine(a, b, start, radius, 0),
			"ExhaustiveRefine": ExhaustiveRefine(a, b, start, radius),
		} {
			if absI(got.X-start.X) > radius || absI(got.Y-start.Y) > radius {
				t.Fatalf("%s(start=%+v, radius=%d) escaped to (%d,%d)", name, start, radius, got.X, got.Y)
			}
		}
	}
}

// TestRefineConvergesOnUnimodalSurface: on the smooth-field pair the CCF
// has a unique global maximum (corr exactly 1) at the true offset. From
// any start within the radius of the truth, the exhaustive search must
// find it, the hill climb must find it, and the two must agree.
func TestRefineConvergesOnUnimodalSurface(t *testing.T) {
	const tx, ty = 5, -3
	a, b := fieldPair(tx, ty)
	truth := tile.Displacement{X: tx, Y: ty}
	if c := ccfRegion(a, b, tx, ty); math.Abs(c-1) > 1e-12 {
		t.Fatalf("CCF at truth = %g, want exactly 1 (identical crops)", c)
	}
	for _, radius := range []int{3, 4, 6} {
		for _, off := range [][2]int{{0, 0}, {radius, radius}, {-radius, radius}, {radius, -radius}, {-radius, -radius}, {1, -radius}} {
			start := tile.Displacement{X: truth.X + off[0], Y: truth.Y + off[1]}
			ex := ExhaustiveRefine(a, b, start, radius)
			if ex.X != truth.X || ex.Y != truth.Y {
				t.Errorf("ExhaustiveRefine(start=%+v, radius=%d) = (%d,%d), want (%d,%d)",
					start, radius, ex.X, ex.Y, truth.X, truth.Y)
			}
			if ex.Corr < 0.999 {
				t.Errorf("ExhaustiveRefine corr %g at the optimum, want ≈1", ex.Corr)
			}
			hc := Refine(a, b, start, radius, 0)
			if hc.X != ex.X || hc.Y != ex.Y {
				t.Errorf("Refine(start=%+v, radius=%d) = (%d,%d) disagrees with exhaustive (%d,%d)",
					start, radius, hc.X, hc.Y, ex.X, ex.Y)
			}
		}
	}
}

// TestRefineRadiusProperty drives the radius invariant through
// testing/quick on the smooth pair: random starts and radii, result
// always inside the window, and whenever the truth is inside the window
// the exhaustive search returns it.
func TestRefineRadiusProperty(t *testing.T) {
	const tx, ty = 5, -3
	a, b := fieldPair(tx, ty)
	f := func(sx, sy int8, r uint8) bool {
		radius := int(r%8) + 1
		start := tile.Displacement{X: int(sx % 16), Y: int(sy % 16)}
		ex := ExhaustiveRefine(a, b, start, radius)
		hc := Refine(a, b, start, radius, 0)
		if absI(ex.X-start.X) > radius || absI(ex.Y-start.Y) > radius {
			return false
		}
		if absI(hc.X-start.X) > radius || absI(hc.Y-start.Y) > radius {
			return false
		}
		if absI(tx-start.X) <= radius && absI(ty-start.Y) <= radius {
			return ex.X == tx && ex.Y == ty
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
