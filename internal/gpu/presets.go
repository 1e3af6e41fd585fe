package gpu

// FermiConfig models a Tesla C2070-generation card as the paper used it:
// 6 GB of device memory, two DMA engines, and — decisive for the
// pipeline's structure — a single effective kernel slot, because cuFFT
// 5.5's register pressure prevented concurrent kernel execution on
// Fermi (paper §IV.B).
func FermiConfig(name string) Config {
	return Config{
		Name:        name,
		MemWords:    384 << 20, // 6 GiB of complex128 words
		CopyEngines: 2,
		KernelSlots: 1,
	}
}

// KeplerConfig models a GK110-generation card (paper §VI.A future work):
// Hyper-Q lets multiple CPU threads issue kernels that execute
// concurrently, so the kernel slot count rises.
func KeplerConfig(name string) Config {
	return Config{
		Name:        name,
		MemWords:    384 << 20,
		CopyEngines: 2,
		KernelSlots: 16,
	}
}
