package fault

import (
	"fmt"
	"strings"
)

// Site names one error point. Its field is unexported, so the only
// Sites that exist are the registry's: a component cannot hit, and a
// spec cannot arm, a site the injector does not know — a typo'd name is
// a compile error in code and a parse error in a -fault-spec.
type Site struct{ name string }

// String returns the site's spec name.
func (s Site) String() string { return s.name }

// The registry: every site production code fires, and no other.
var (
	// SiteTiffRead fires on TIFF tile decodes (detail: file path).
	SiteTiffRead = Site{"tiffio.read"}
	// SiteGPUAlloc fires on device-pool allocations (detail: device name).
	SiteGPUAlloc = Site{"gpu.alloc"}
	// SiteGPUAllocSpectrum fires on half-spectrum (r2c) buffer
	// allocations (detail: device name). These also pass through
	// SiteGPUAlloc, so generic allocation rules still cover them; this
	// site lets a spec target the real-FFT path specifically.
	SiteGPUAllocSpectrum = Site{"gpu.alloc.spectrum"}
	// SiteGPUFreeSpectrum fires when a half-spectrum buffer is freed
	// (detail: device name). A fault here leaves the buffer allocated.
	SiteGPUFreeSpectrum = Site{"gpu.free.spectrum"}
	// SiteGPUCopyH2D fires on host→device copies (detail: stream/op).
	SiteGPUCopyH2D = Site{"gpu.copy.h2d"}
	// SiteGPUKernelFFT fires on forward FFT kernel launches.
	SiteGPUKernelFFT = Site{"gpu.kernel.fft"}
	// SiteGPUKernelNCC fires on the fused NCC → inverse FFT → max
	// reduction kernel launches.
	SiteGPUKernelNCC = Site{"gpu.kernel.ncc"}
	// SiteStitchRead fires on stitch-layer tile reads (detail: rRRR_cCCC).
	SiteStitchRead = Site{"stitch.read"}
	// SiteStitchFFT fires on stitch-layer forward transforms.
	SiteStitchFFT = Site{"stitch.fft"}
	// SitePCIAMNCC fires on pair displacement computations.
	SitePCIAMNCC = Site{"pciam.ncc"}
)

// Sites lists every registered site, in stable order.
func Sites() []Site {
	return []Site{
		SiteTiffRead,
		SiteGPUAlloc,
		SiteGPUAllocSpectrum,
		SiteGPUFreeSpectrum,
		SiteGPUCopyH2D,
		SiteGPUKernelFFT,
		SiteGPUKernelNCC,
		SiteStitchRead,
		SiteStitchFFT,
		SitePCIAMNCC,
	}
}

// SiteNames is the registry as a comma-separated list of spec names.
func SiteNames() string {
	var names []string
	for _, s := range Sites() {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

// lookupSite resolves a spec name against the registry.
func lookupSite(name string) (Site, error) {
	for _, s := range Sites() {
		if s.name == name {
			return s, nil
		}
	}
	return Site{}, fmt.Errorf("unknown site %q (registered sites: %s)", name, SiteNames())
}
