// Package tiffio reads and writes the subset of TIFF 6.0 that
// optical-microscopy acquisition software emits and phase 3 produces:
// grayscale, 8 or 16 bits per sample, in either byte order; classic
// single-image files of raw strips or of raw or Deflate tiles (Deflate
// with or without the horizontal predictor), and the multi-resolution
// BigTIFF pyramid. One directory codec (ifd.go) and one chunk codec
// (tiled.go) serve both formats. It is the stand-in for libTIFF in the
// stitching pipeline, implemented on the standard library only.
package tiffio

import (
	"compress/zlib"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"hybridstitch/internal/fault"
	"hybridstitch/internal/tile"
)

// ErrCorrupt classifies every Decode failure: the bytes on disk do not
// form a decodable baseline TIFF (truncation, bad structure, implausible
// headers). Callers use errors.Is(err, ErrCorrupt) to decide that a tile
// is permanently unreadable — retrying the read cannot fix the data — and
// degrade it instead of aborting the plate.
var ErrCorrupt = errors.New("tiffio: corrupt file")

// corruptError carries the specific decode failure while matching
// ErrCorrupt in errors.Is chains.
type corruptError struct{ err error }

func (e *corruptError) Error() string { return e.err.Error() }
func (e *corruptError) Unwrap() error { return e.err }
func (e *corruptError) Is(target error) bool {
	return target == ErrCorrupt
}

// injector is the package's fault-injection hook (site "tiffio.read",
// detail = file path). The atomic pointer keeps the uninstalled path to
// a single load-and-nil-check per ReadFile.
var injector atomic.Pointer[fault.Injector]

// SetInjector installs (or, with nil, removes) the fault injector
// consulted by ReadFile. Tests install a seeded injector and remove it
// when done; production runs install the -fault-spec registry.
func SetInjector(in *fault.Injector) {
	injector.Store(in)
}

// Decode parses a classic TIFF from r. Any failure wraps ErrCorrupt: the
// input is a complete byte stream, so an undecodable one is bad data, not
// a transient condition.
func Decode(r io.ReaderAt) (*tile.Gray16, error) {
	img, err := decode(r)
	if err != nil {
		return nil, &corruptError{err: err}
	}
	return img, nil
}

// decode is the unwrapped parser.
func decode(r io.ReaderAt) (*tile.Gray16, error) {
	bo, first, err := classicTIFF.readHeader(r)
	if err != nil {
		return nil, err
	}
	d, err := classicTIFF.readDir(r, bo, first)
	if err != nil {
		return nil, err
	}
	// 2^20 per side and 2^28 pixels (512 MB of 16-bit data) comfortably
	// cover every plate the paper discusses (10k–200k px per side are full
	// COMPOSITES; tiles are thousands per side).
	if d.w > 1<<20 || d.h > 1<<20 || int64(d.w)*int64(d.h) > 1<<28 {
		return nil, fmt.Errorf("tiffio: implausible dimensions %dx%d", d.w, d.h)
	}
	return d.image(r, bo)
}

// EncodeOpts adjusts Encode output.
type EncodeOpts struct {
	// BigEndian writes an "MM" file; default is "II".
	BigEndian bool
	// RowsPerStrip bounds strip height; 0 chooses strips of about 8 KiB,
	// the TIFF 6.0 recommendation.
	RowsPerStrip int
	// TileW/TileH switch to the tiled layout (TIFF 6.0 §15). The spec
	// requires multiples of 16. Zero keeps strips.
	TileW, TileH int
	// Deflate zlib-compresses each tile payload independently
	// (Compression=8, TIFF Technical Note 2) after the horizontal
	// predictor (Predictor=2, TIFF 6.0 §14). Only the tiled layout
	// supports it.
	Deflate bool
}

// Encode writes img as a 16-bit grayscale classic TIFF: header(8) |
// chunks | IFD | out-of-line arrays. A chunk is a strip (whole rows, the
// last strip short) or, with TileW/TileH, a tile (TIFF 6.0 §15: fixed
// size, edge tiles zero-padded), raw or independently deflated so readers
// can still random-access single tiles.
func Encode(w io.Writer, img *tile.Gray16, opts EncodeOpts) error {
	if img.W <= 0 || img.H <= 0 {
		return fmt.Errorf("tiffio: cannot encode empty image %dx%d", img.W, img.H)
	}
	bo := byteOrder(opts.BigEndian)
	tiled := opts.TileW > 0 || opts.TileH > 0
	cw, ch := img.W, opts.RowsPerStrip
	switch {
	case tiled:
		cw, ch = opts.TileW, opts.TileH
		if cw <= 0 {
			cw = 64
		}
		if ch <= 0 {
			ch = 64
		}
		if cw%16 != 0 || ch%16 != 0 {
			return fmt.Errorf("tiffio: tile size %dx%d must be multiples of 16", cw, ch)
		}
	case opts.Deflate:
		return fmt.Errorf("tiffio: Deflate requires the tiled layout (set TileW/TileH)")
	case ch <= 0:
		ch = max(1, (8<<10)/(img.W*2))
	}
	if !tiled {
		ch = min(ch, img.H)
	}

	// Every chunk is built before the header is written: compressed sizes
	// are only known after compressing, and the IFD follows the chunks.
	raw := make([]byte, 2*cw*ch)
	n := ((img.W + cw - 1) / cw) * ((img.H + ch - 1) / ch)
	sizes := make([]int, 0, n)
	var payload []byte
	if !opts.Deflate {
		payload = make([]byte, 0, n*len(raw))
	}
	var zw *zlib.Writer
	for y0 := 0; y0 < img.H; y0 += ch {
		rows := min(ch, img.H-y0)
		chunk := raw
		if !tiled {
			chunk = raw[:2*cw*rows]
		}
		for x0 := 0; x0 < img.W; x0 += cw {
			packTile(chunk, img.Pix[y0*img.W+x0:], img.W, min(cw, img.W-x0), rows, cw, bo, opts.Deflate)
			start := len(payload)
			if opts.Deflate {
				var err error
				if zw, payload, err = deflateTile(zw, payload, chunk); err != nil {
					return err
				}
			} else {
				payload = append(payload, chunk...)
			}
			sizes = append(sizes, len(payload)-start)
		}
	}
	offs, cnts, ifdOff, err := chunkLayout(classicTIFF.headerSize(), sizes)
	if err != nil {
		return err
	}
	compression := uint64(compressionNone)
	if opts.Deflate {
		compression = compressionDeflate
	}
	fields := classicTIFF.tiledFields(img.W, img.H, cw, ch, compression, offs, cnts)
	if !tiled {
		fields = append(imageFields(img.W, img.H, compression),
			field{tagStripOffsets, typeLong, offs},
			one(tagSamplesPerPixel, typeShort, 1),
			one(tagRowsPerStrip, typeLong, ch),
			field{tagStripByteCounts, typeLong, cnts},
			one(tagSampleFormat, typeShort, 1)) // unsigned integer
	}
	dir, err := classicTIFF.encodeDir(bo, ifdOff, fields, false)
	if err != nil {
		return err
	}
	for _, b := range [][]byte{classicTIFF.header(bo, ifdOff), payload, dir} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// ReadFile decodes the TIFF at path. When a fault injector is installed
// via SetInjector, the read is an error point: site "tiffio.read",
// detail = path.
func ReadFile(path string) (*tile.Gray16, error) {
	if err := injector.Load().Hit(fault.SiteTiffRead, path); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// WriteFile encodes img to path as little-endian 16-bit TIFF.
func WriteFile(path string, img *tile.Gray16) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, img, EncodeOpts{}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
