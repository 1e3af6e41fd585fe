package gpu_test

import (
	"fmt"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/gpu"
)

// Example shows the stream/event model: two streams overlap, an event
// makes the consumer wait for the producer. The producer uploads a 4×4
// tile; the consumer transforms it in place once the upload has landed,
// and the DC term of the half spectrum is the sum of the pixels.
func Example() {
	dev := gpu.New(gpu.Config{Name: "GPU0", KernelSlots: 2})
	defer dev.Close()

	producer, _ := dev.NewStream("producer")
	consumer, _ := dev.NewStream("consumer")

	const h, w = 4, 4
	buf, err := dev.AllocSpectrum(h, w)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = buf.Free() }()
	plan, err := fft.NewRealPlan2DOpts(h, w, fft.Real2DOpts{})
	if err != nil {
		fmt.Println(err)
		return
	}

	pixels := make([]float64, h*w)
	for i := range pixels {
		pixels[i] = float64(i)
	}
	uploaded := producer.MemcpyH2DPackedReal(buf, pixels)
	done := consumer.RealFFT2D(plan, buf, uploaded) // cross-stream dependency

	if err := done.Wait(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(real(buf.Data[0]))
	// Output: 120
}

// ExampleDevice_Alloc demonstrates the hard capacity that forces the
// stitching pipeline's buffer-pool discipline.
func ExampleDevice_Alloc() {
	dev := gpu.New(gpu.Config{MemWords: 100})
	a, _ := dev.Alloc(80)
	if b, err := dev.Alloc(40); err != nil {
		fmt.Println("second allocation refused")
	} else {
		_ = b.Free()
	}
	_ = a.Free()
	if b, err := dev.Alloc(40); err == nil {
		fmt.Println("fits after free")
		_ = b.Free()
	}
	// Output:
	// second allocation refused
	// fits after free
}
