package stitch

import (
	"fmt"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/pciam"
	"hybridstitch/internal/tile"
)

// FFTVariant selects the per-pair transform path. The CPU
// implementations support all three; the GPU pipelines support the
// baseline complex path and the real-to-complex path.
type FFTVariant string

const (
	// VariantComplex is the paper's baseline: full complex transforms.
	VariantComplex FFTVariant = ""
	// VariantPadded zero-pads tiles to the next small-prime-factor size
	// before transforming (paper §VI.A future work).
	VariantPadded FFTVariant = "padded"
	// VariantReal uses real-to-complex transforms and half spectra
	// (paper §VI.A future work).
	VariantReal FFTVariant = "real"
)

// transformWords is the per-tile transform footprint in complex128
// words: the full w×h spectrum for the complex path, the padded fast
// size for the padded path, and the h×(w/2+1) half spectrum — roughly
// half — for the real path. Host-cache and device-pool accounting both
// derive from it, so the r2c saving shows up in memgov pressure and GPU
// pool capacity alike.
func (v FFTVariant) transformWords(g tile.Grid) int64 {
	switch v {
	case VariantPadded:
		return int64(fft.NextFastLength(g.TileH)) * int64(fft.NextFastLength(g.TileW))
	case VariantReal:
		return int64(g.TileH) * int64(g.TileW/2+1)
	default:
		return int64(g.TileH) * int64(g.TileW)
	}
}

// aligner is the per-worker alignment engine; both pciam aligner types
// satisfy it.
type aligner interface {
	Transform(*tile.Gray16) ([]complex128, error)
	Displace(a, b *tile.Gray16, fa, fb []complex128) (tile.Displacement, error)
	// DisplaceTiles transforms both tiles itself: the Fiji baseline's
	// no-reuse path.
	DisplaceTiles(a, b *tile.Gray16) (tile.Displacement, error)
	// Close returns the aligner to the pciam pool.
	Close()
}

var (
	_ aligner = (*pciam.Aligner)(nil)
	_ aligner = (*pciam.RealAligner)(nil)
)

// acquireAligner gets an aligner (plans and scratch included) for the
// run's FFT variant. The pciam constructors draw on a pool, so per-run
// and per-worker acquisition reuses warm memory across runs instead of
// re-allocating plans and buffers every time. Close it when the worker
// is done.
func acquireAligner(g tile.Grid, opts Options) (aligner, error) {
	po := opts.pciamOptions()
	switch opts.FFTVariant {
	case VariantComplex:
		return pciam.NewAligner(g.TileW, g.TileH, po)
	case VariantPadded:
		return pciam.NewPaddedAligner(g.TileW, g.TileH, po)
	case VariantReal:
		return pciam.NewRealAligner(g.TileW, g.TileH, po)
	default:
		return nil, fmt.Errorf("stitch: unknown FFT variant %q", opts.FFTVariant)
	}
}
