package pciam

import (
	"math"

	"hybridstitch/internal/tile"
)

// Hill-climb refinement, the translation-refinement stage the NIST group
// added on the road from this paper to MIST: when phase correlation
// fails (featureless overlap, spurious peak), the stage model still
// predicts the displacement within a few pixels, and maximizing the
// cross-correlation factor by greedy local search from that prediction
// recovers the true translation without any Fourier machinery.

// Refine hill-climbs the CCF surface from the starting displacement,
// examining a 5×5 neighborhood each step (the ±2 look-ahead steps over
// the single-pixel ripples fine image texture puts on the surface), for
// at most maxSteps steps and never moving more than radius from the
// start. It returns the best displacement found (the start itself if no
// neighbor improves).
func Refine(a, b *tile.Gray16, start tile.Displacement, radius, maxSteps int) tile.Displacement {
	if radius < 1 {
		radius = 4
	}
	if maxSteps < 1 {
		maxSteps = 2 * radius * radius
	}
	cur := start
	cur.Corr = ccfRegion(a, b, start.X, start.Y)
	visited := map[[2]int]bool{{start.X, start.Y}: true}
	for step := 0; step < maxSteps; step++ {
		best := cur
		improved := false
		for dy := -2; dy <= 2; dy++ {
			for dx := -2; dx <= 2; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				nx, ny := cur.X+dx, cur.Y+dy
				if absI(nx-start.X) > radius || absI(ny-start.Y) > radius {
					continue
				}
				if visited[[2]int{nx, ny}] {
					continue
				}
				visited[[2]int{nx, ny}] = true
				c := ccfRegion(a, b, nx, ny)
				if c > best.Corr {
					best = tile.Displacement{X: nx, Y: ny, Corr: c}
					improved = true
				}
			}
		}
		if !improved {
			break
		}
		cur = best
	}
	if math.IsInf(cur.Corr, -1) {
		cur.Corr = -1
	}
	return cur
}

// ExhaustiveRefine evaluates the CCF at every offset within ±radius of
// the start and returns the maximum — the reference Refine is checked
// against, and the fallback for surfaces with local maxima.
func ExhaustiveRefine(a, b *tile.Gray16, start tile.Displacement, radius int) tile.Displacement {
	if radius < 1 {
		radius = 4
	}
	best := tile.Displacement{X: start.X, Y: start.Y, Corr: math.Inf(-1)}
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			c := ccfRegion(a, b, start.X+dx, start.Y+dy)
			if c > best.Corr {
				best = tile.Displacement{X: start.X + dx, Y: start.Y + dy, Corr: c}
			}
		}
	}
	if math.IsInf(best.Corr, -1) {
		best = start
		best.Corr = -1
	}
	return best
}

func absI(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// SubpixelPeak refines an integer correlation peak to subpixel precision
// by fitting a 1-D parabola through the peak and its neighbors along
// each axis (the standard refinement MIST applies after phase
// correlation). data is the h×w correlation surface; returns the refined
// (x, y) with each offset clamped to (-0.5, 0.5).
func SubpixelPeak(data []complex128, w, h, px, py int) (float64, float64) {
	at := func(x, y int) float64 {
		x = ((x % w) + w) % w
		y = ((y % h) + h) % h
		v := data[y*w+x]
		return math.Hypot(real(v), imag(v))
	}
	refine := func(m1, c, p1 float64) float64 {
		den := m1 - 2*c + p1
		if den == 0 {
			return 0
		}
		d := 0.5 * (m1 - p1) / den
		if d > 0.5 {
			d = 0.5
		}
		if d < -0.5 {
			d = -0.5
		}
		return d
	}
	dx := refine(at(px-1, py), at(px, py), at(px+1, py))
	dy := refine(at(px, py-1), at(px, py), at(px, py+1))
	return float64(px) + dx, float64(py) + dy
}
