package fft_test

import (
	"fmt"
	"math"

	"hybridstitch/internal/fft"
)

// ExamplePlan transforms a small signal forward and back.
func ExamplePlan() {
	x := []complex128{1, 2, 3, 4}
	fwd, _ := fft.NewPlan(len(x), fft.Forward, fft.PlanOpts{})
	inv, _ := fft.NewPlan(len(x), fft.Inverse, fft.PlanOpts{NormalizeInverse: true})
	_ = fwd.Execute(x)
	fmt.Printf("DC bin: %.0f\n", real(x[0]))
	_ = inv.Execute(x)
	fmt.Printf("round trip: %.0f %.0f %.0f %.0f\n", real(x[0]), real(x[1]), real(x[2]), real(x[3]))
	// Output:
	// DC bin: 10
	// round trip: 1 2 3 4
}

// ExampleTransformSize shows the size rule on the paper's tile,
// 1392×1040 = 2⁴·3·29 × 2⁴·5·13: it transforms at the nearby 1440×1080,
// in either layout, while an already fast size keeps its own.
func ExampleTransformSize() {
	fmt.Println(fft.TransformSize(1392, 1040, true))
	fmt.Println(fft.TransformSize(1392, 1040, false))
	fmt.Println(fft.TransformSize(512, 384, true))
	// Output:
	// 1440 1080
	// 1440 1080
	// 512 384
}

// ExampleNewRealPlan2D computes a half-spectrum transform of a real
// image — half the storage of the complex path.
func ExampleNewRealPlan2D() {
	const h, w = 8, 16
	img := make([]float64, h*w)
	for i := range img {
		img[i] = math.Sin(float64(i))
	}
	rp, _ := fft.NewRealPlan2D(h, w)
	sh, sw := rp.SpectrumDims()
	spec := make([]complex128, sh*sw)
	_ = rp.Forward(spec, img)
	fmt.Printf("spectrum %dx%d for image %dx%d\n", sh, sw, h, w)
	// Output: spectrum 8x9 for image 8x16
}

// ExampleNextFastLength shows the padding ablation's size mapping.
func ExampleNextFastLength() {
	fmt.Println(fft.NextFastLength(1392), fft.NextFastLength(1040))
	// Output: 1400 1050
}
