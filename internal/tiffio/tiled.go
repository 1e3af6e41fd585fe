package tiffio

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"hybridstitch/internal/tile"
)

// This file is the chunk codec both formats share: packing a tile's
// samples and deflating it on the way out, and one tiled-pixel decoder on
// the way in. A reader allocates the pixels it returns, a scratch of one
// stored tile row, and bytes the file holds: a chunk's claimed size is
// checked against the tile and against the file before anything is
// allocated for it, and a Deflate tile is inflated row by row.
//
// Every Deflate chunk the writers emit is compressed by one rule: the
// samples of each stored row are replaced by their horizontal differences
// (TIFF 6.0 §14, Predictor=2), then deflated at zlib's BestSpeed. Sensor
// noise leaves level 6's slow match search almost nothing to find, while
// the differences of a smooth background are small and cheap to code. On
// the composed bench plates this deflates 3–4× faster than level 6
// without the predictor, into 9 % fewer bytes; HuffmanOnly is a little
// faster still on noise but cannot shrink a constant tile below 1/8
// (EXPERIMENTS.md, "Phase 3's chunk codec").

// deflateLevel is the zlib level every Deflate chunk is written at.
const deflateLevel = zlib.BestSpeed

// packTile writes rows×cols samples of src, whose rows are stride samples
// apart, into dst as rows of tw samples in bo order, zeroing whatever of
// dst lies past them (the padding of an edge tile). With predict set each
// stored row holds horizontal differences instead: its first sample, then
// each sample minus the one before it, modulo 2^16, across the padding
// too. undoPredictor inverts them.
func packTile(dst []byte, src []uint16, stride, cols, rows, tw int, bo binary.ByteOrder, predict bool) {
	if cols < tw || 2*rows*tw < len(dst) {
		clear(dst)
	}
	for y := 0; y < rows; y++ {
		s := src[y*stride:][:cols]
		d := dst[2*y*tw:][:2*cols]
		var prev uint16
		switch {
		case predict && bo == binary.BigEndian:
			for x, v := range s {
				d[2*x], d[2*x+1] = byte((v-prev)>>8), byte(v-prev)
				prev = v
			}
		case predict:
			for x, v := range s {
				d[2*x], d[2*x+1] = byte(v-prev), byte((v-prev)>>8)
				prev = v
			}
		case bo == binary.BigEndian:
			for x, v := range s {
				d[2*x], d[2*x+1] = byte(v>>8), byte(v)
			}
		default:
			for x, v := range s {
				d[2*x], d[2*x+1] = byte(v), byte(v>>8)
			}
		}
		if predict && cols < tw {
			bo.PutUint16(dst[2*(y*tw+cols):], -prev) // the step down to the zero padding
		}
	}
}

// sliceWriter appends to a byte slice.
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// deflateTile appends raw to dst as one independent zlib stream at
// deflateLevel, written by zw reset onto dst (a new writer when zw is
// nil), and returns the writer for reuse and the grown dst.
func deflateTile(zw *zlib.Writer, dst, raw []byte) (*zlib.Writer, []byte, error) {
	sink := sliceWriter{dst}
	if zw == nil {
		zw, _ = zlib.NewWriterLevel(&sink, deflateLevel) // fails only for an invalid level
	} else {
		zw.Reset(&sink)
	}
	_, err := zw.Write(raw)
	if err == nil {
		err = zw.Close()
	}
	return zw, sink.b, err
}

// checkTileBytes fails unless n stored bytes can hold one tile of t
// bytes of samples. A raw tile is exactly t. A Deflate tile is at most
// 2t+1024, as zlib never expands one past a small constant overhead, and
// at least t/1032, deflate's largest ratio (a 258-byte match in two bits),
// so no claim makes a reader allocate more than the stored bytes can
// decode to.
func (d *directory) checkTileBytes(n uint64) error {
	t := uint64(d.tileW * d.tileH * d.bits / 8)
	if d.compression == compressionDeflate && (n*1032 < t || n > 2*t+1024) ||
		d.compression == compressionNone && n != t {
		return fmt.Errorf("%d stored bytes for a %d-byte tile", n, t)
	}
	return nil
}

// readTile reads the stored bytes of tile idx into buf, grown as needed.
func (d *directory) readTile(r io.ReaderAt, idx int, buf []byte) ([]byte, error) {
	if err := d.checkTileBytes(d.cnts[idx]); err != nil {
		return nil, fmt.Errorf("tiffio: tile %d: %w", idx, err)
	}
	return readAt(r, d.offs[idx], d.cnts[idx], buf)
}

// unpackTile decodes payload, the stored bytes of tile (tx, ty), into
// dst, whose rows are stride pixels apart: the tile's pixels inside the
// image, its padding dropped. The payload is read one stored row at a
// time, so a Deflate tile is never inflated whole; it must hold exactly
// one tile.
func (d *directory) unpackTile(dst []uint16, stride int, payload []byte, tx, ty int, bo binary.ByteOrder) error {
	var src io.Reader = bytes.NewReader(payload)
	if d.compression == compressionDeflate {
		zr, err := zlib.NewReader(src)
		if err != nil {
			return err
		}
		defer zr.Close()
		src = zr
	}
	w := min(d.tileW, d.w-tx*d.tileW)
	h := min(d.tileH, d.h-ty*d.tileH)
	row := make([]byte, d.tileW*d.bits/8)
	for y := 0; y < d.tileH; y++ {
		if _, err := io.ReadFull(src, row); err != nil {
			return fmt.Errorf("short tile payload: %w", err)
		}
		if y < h {
			if d.predictor == predictorHorizontal {
				undoPredictor(row[:w*d.bits/8], d.bits, bo)
			}
			unpackRow(dst[y*stride:][:w], row, d.bits, bo)
		}
	}
	var one [1]byte
	if n, _ := src.Read(one[:]); n != 0 {
		return errors.New("tile payload longer than tile")
	}
	return nil
}

// undoPredictor replaces the horizontal differences of a stored row, or
// of its leading part, with the samples they encode: a running sum of
// 8-bit samples, or of 16-bit samples in bo order, modulo 2^bits.
func undoPredictor(row []byte, bits int, bo binary.ByteOrder) {
	switch {
	case bits == 8:
		for i := 1; i < len(row); i++ {
			row[i] += row[i-1]
		}
	case bo == binary.BigEndian:
		for i := 2; i+1 < len(row); i += 2 {
			binary.BigEndian.PutUint16(row[i:], binary.BigEndian.Uint16(row[i:])+binary.BigEndian.Uint16(row[i-2:]))
		}
	default:
		for i := 2; i+1 < len(row); i += 2 {
			binary.LittleEndian.PutUint16(row[i:], binary.LittleEndian.Uint16(row[i:])+binary.LittleEndian.Uint16(row[i-2:]))
		}
	}
}

// unpackRow converts stored samples into len(dst) pixels; 8-bit samples
// scale to the 16-bit range the pipeline works in.
func unpackRow(dst []uint16, src []byte, bits int, bo binary.ByteOrder) {
	if bits == 8 {
		for i := range dst {
			dst[i] = uint16(src[i]) * 257
		}
		return
	}
	for i := range dst {
		dst[i] = bo.Uint16(src[2*i:])
	}
}

// image decodes the whole image d describes: strips straight into place,
// tiles one at a time through unpackTile. Every chunk's claim is checked,
// and the file must hold the farthest chunk, before the image is
// allocated.
func (d *directory) image(r io.ReaderAt, bo binary.ByteOrder) (*tile.Gray16, error) {
	want := uint64(d.w * d.h * d.bits / 8)
	var have, end uint64
	for i, off := range d.offs {
		n := d.cnts[i]
		if d.tileW == 0 {
			n = min(n, want-have) // trailing padding in the final strip is tolerated
		} else if err := d.checkTileBytes(n); err != nil {
			return nil, fmt.Errorf("tiffio: tile %d: %w", i, err)
		}
		if off > math.MaxInt64-n {
			return nil, fmt.Errorf("tiffio: chunk %d at offset %d out of range", i, off)
		}
		if n > 0 {
			have, end = have+n, max(end, off+n)
		}
	}
	if d.tileW == 0 && have != want {
		return nil, fmt.Errorf("tiffio: pixel data is %d bytes, want %d", have, want)
	}
	if err := probe(r, end); err != nil {
		return nil, fmt.Errorf("tiffio: chunks end past the file: %w", err)
	}
	img := tile.NewGray16(d.w, d.h)
	if d.tileW == 0 {
		raw := make([]byte, want)
		pos := uint64(0)
		for i, off := range d.offs {
			n := min(d.cnts[i], want-pos)
			if _, err := r.ReadAt(raw[pos:pos+n], int64(off)); err != nil {
				return nil, fmt.Errorf("tiffio: strip %d: %w", i, err)
			}
			pos += n
		}
		unpackRow(img.Pix, raw, d.bits, bo)
		return img, nil
	}
	var payload []byte
	for ty := 0; ty < d.down; ty++ {
		for tx := 0; tx < d.across; tx++ {
			var err error
			if payload, err = d.readTile(r, ty*d.across+tx, payload); err != nil {
				return nil, err
			}
			if err := d.unpackTile(img.Pix[ty*d.tileH*d.w+tx*d.tileW:], d.w, payload, tx, ty, bo); err != nil {
				return nil, fmt.Errorf("tiffio: tile (%d,%d): %w", tx, ty, err)
			}
		}
	}
	return img, nil
}
