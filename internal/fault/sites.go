package fault

import (
	"sort"
	"strings"
)

// This file is the fault-site registry: the single authoritative list of
// error-point names the injector can be asked to fire on. Components must
// pass one of these constants (or a KernelSite-derived name) to
// Injector.Hit; the stitchlint faultsite analyzer enforces that at build
// time, so a typo'd site — which would otherwise silently never fire —
// is a lint error instead of a dead rule in a long unattended run.

// Registered fault sites. Every Hit call site in the tree names one of
// these (directly or via KernelSite).
const (
	// SiteTiffRead fires on TIFF tile decodes (detail: file path).
	SiteTiffRead = "tiffio.read"
	// SiteGPUAlloc fires on device-pool allocations (detail: device name).
	SiteGPUAlloc = "gpu.alloc"
	// SiteGPUAllocSpectrum fires on half-spectrum (r2c) buffer
	// allocations (detail: device name). These also pass through
	// SiteGPUAlloc, so generic allocation rules still cover them; this
	// site lets a spec target the real-FFT path specifically.
	SiteGPUAllocSpectrum = "gpu.alloc.spectrum"
	// SiteGPUFreeSpectrum fires when a half-spectrum buffer is freed
	// (detail: device name). A fault here leaves the buffer allocated.
	SiteGPUFreeSpectrum = "gpu.free.spectrum"
	// SiteGPUCopyH2D fires on host→device copies (detail: stream/op).
	SiteGPUCopyH2D = "gpu.copy.h2d"
	// SiteGPUCopyD2H fires on device→host copies (detail: stream/op).
	SiteGPUCopyD2H = "gpu.copy.d2h"
	// SiteGPUKernelFFT fires on forward/inverse FFT kernel launches.
	SiteGPUKernelFFT = "gpu.kernel.fft"
	// SiteGPUKernelNCC fires on NCC kernel launches.
	SiteGPUKernelNCC = "gpu.kernel.ncc"
	// SiteGPUKernelReduce fires on max-reduction kernel launches.
	SiteGPUKernelReduce = "gpu.kernel.reduce"
	// SiteStitchRead fires on stitch-layer tile reads (detail: rRRR_cCCC).
	SiteStitchRead = "stitch.read"
	// SiteStitchFFT fires on stitch-layer forward transforms.
	SiteStitchFFT = "stitch.fft"
	// SitePCIAMNCC fires on pair displacement computations.
	SitePCIAMNCC = "pciam.ncc"
)

// kernelSitePrefix is the namespace for dynamically named kernel sites.
const kernelSitePrefix = "gpu.kernel."

// KernelSite returns the fault site for a named device kernel. The three
// paper kernels have dedicated constants (SiteGPUKernelFFT/NCC/Reduce);
// this covers kernels a caller names itself (Stream.Launch) without
// requiring a registry entry per kernel.
func KernelSite(name string) string { return kernelSitePrefix + name }

// Sites lists every registered site, in stable order. The stitchlint
// faultsite analyzer and spec validation both consume it.
func Sites() []string {
	return []string{
		SiteTiffRead,
		SiteGPUAlloc,
		SiteGPUAllocSpectrum,
		SiteGPUFreeSpectrum,
		SiteGPUCopyH2D,
		SiteGPUCopyD2H,
		SiteGPUKernelFFT,
		SiteGPUKernelNCC,
		SiteGPUKernelReduce,
		SiteStitchRead,
		SiteStitchFFT,
		SitePCIAMNCC,
	}
}

// KnownSite reports whether s is a registered site or a dynamic kernel
// site under the gpu.kernel. namespace.
func KnownSite(s string) bool {
	for _, k := range Sites() {
		if s == k {
			return true
		}
	}
	return strings.HasPrefix(s, kernelSitePrefix) && len(s) > len(kernelSitePrefix)
}

// RuleSites returns the distinct site names the injector's rules watch,
// in first-seen order. CLI front ends use it to warn about spec rules
// naming unregistered sites (which would never fire). A nil receiver
// returns nil.
func (in *Injector) RuleSites() []string {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	seen := make(map[string]bool, len(in.rules))
	var out []string
	for site := range in.rules {
		if !seen[site] {
			seen[site] = true
			out = append(out, site)
		}
	}
	sort.Strings(out)
	return out
}
