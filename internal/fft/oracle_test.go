package fft

import "testing"

// The reference transforms of the bit-identity wall. They apply the
// exported 1-D plans row by row and then column by column, gathering
// each column through a strided walk — the arithmetic every 2-D plan
// must reproduce exactly, whatever transpose or split it runs through.
// Equality with them is ==, never a tolerance.

// oracleColumns runs plan over every column of the h×w matrix data.
func oracleColumns(t testing.TB, data []complex128, h, w int, plan *Plan) {
	t.Helper()
	col := make([]complex128, h)
	for c := 0; c < w; c++ {
		for r := range col {
			col[r] = data[r*w+c]
		}
		if err := plan.Execute(col); err != nil {
			t.Fatal(err)
		}
		for r := range col {
			data[r*w+c] = col[r]
		}
	}
}

func oraclePlan(t testing.TB, n int, dir Direction) *Plan {
	t.Helper()
	p, err := NewPlan(n, dir, PlanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// oracle2D returns the unnormalized 2-D transform of the h×w matrix src.
func oracle2D(t testing.TB, src []complex128, h, w int, dir Direction) []complex128 {
	t.Helper()
	out := append([]complex128(nil), src...)
	row := oraclePlan(t, w, dir)
	for r := 0; r < h; r++ {
		if err := row.Execute(out[r*w : (r+1)*w]); err != nil {
			t.Fatal(err)
		}
	}
	oracleColumns(t, out, h, w, oraclePlan(t, h, dir))
	return out
}

// oracleRealForward returns the h×(w/2+1) half spectrum of the real
// h×w image img.
func oracleRealForward(t testing.TB, img []float64, h, w int) []complex128 {
	t.Helper()
	row, err := NewRealPlan(w)
	if err != nil {
		t.Fatal(err)
	}
	sw := row.SpectrumLen()
	spec := make([]complex128, h*sw)
	for r := 0; r < h; r++ {
		if err := row.Forward(spec[r*sw:(r+1)*sw], img[r*w:(r+1)*w]); err != nil {
			t.Fatal(err)
		}
	}
	oracleColumns(t, spec, h, sw, oraclePlan(t, h, Forward))
	return spec
}

// oracleRealInverse returns the unnormalized h×w real image of the half
// spectrum spec.
func oracleRealInverse(t testing.TB, spec []complex128, h, w int) []float64 {
	t.Helper()
	row, err := NewRealPlan(w)
	if err != nil {
		t.Fatal(err)
	}
	sw := row.SpectrumLen()
	staged := append([]complex128(nil), spec...)
	oracleColumns(t, staged, h, sw, oraclePlan(t, h, Inverse))
	img := make([]float64, h*w)
	for r := 0; r < h; r++ {
		if err := row.Inverse(img[r*w:(r+1)*w], staged[r*sw:(r+1)*sw]); err != nil {
			t.Fatal(err)
		}
	}
	return img
}
