package tiffio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/tile"
)

// FuzzDecode asserts the decoder never panics and never returns a
// malformed image on arbitrary input — acquisition software crashes are
// a fact of life for five-day experiments, and a truncated tile file
// must surface as an error, not take the stitcher down.
func FuzzDecode(f *testing.F) {
	// Seed with a valid file and a few truncations of it.
	img := tile.NewGray16(9, 7)
	for i := range img.Pix {
		img.Pix[i] = uint16(i * 911)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, img, EncodeOpts{}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:8])
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("II*\x00"))
	f.Add([]byte("MM\x00*"))
	var bigEndian bytes.Buffer
	if err := Encode(&bigEndian, img, EncodeOpts{BigEndian: true, RowsPerStrip: 2}); err != nil {
		f.Fatal(err)
	}
	f.Add(bigEndian.Bytes())

	// Corrupt-but-plausible inputs: valid header with the body mangled in
	// ways acquisition crashes actually produce (mid-strip truncation,
	// zeroed IFD, bit flips in the offsets).
	for _, cut := range []int{9, 16, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	flipped := append([]byte(nil), valid...)
	flipped[5] ^= 0xff
	f.Add(flipped)
	zeroIFD := append([]byte(nil), valid...)
	for i := 4; i < 8 && i < len(zeroIFD); i++ {
		zeroIFD[i] = 0
	}
	f.Add(zeroIFD)
	f.Add([]byte("II*\x00trunc"))
	f.Add(bytes.Repeat([]byte{0}, 64))

	// Tiled files reach the shared tile decoder: raw and Deflate, in both
	// byte orders, with edge tiles to clip. The Deflate ones carry
	// Predictor 2; one copy says Predictor 3, which must be rejected.
	for _, opts := range []EncodeOpts{
		{TileW: 16, TileH: 16},
		{TileW: 16, TileH: 16, BigEndian: true},
		{TileW: 16, TileH: 16, Deflate: true},
		{TileW: 16, TileH: 32, Deflate: true, BigEndian: true},
	} {
		var tiled bytes.Buffer
		if err := Encode(&tiled, img, opts); err != nil {
			f.Fatal(err)
		}
		f.Add(tiled.Bytes())
		if opts.Deflate && !opts.BigEndian {
			f.Add(withTag(f, tiled.Bytes(), tagPredictor, 3))
		}
	}
	// 8-bit samples are differenced byte by byte.
	f.Add(craftTiled(f, binary.BigEndian, 8, 9, 7, 16, 16, compressionDeflate, predictorHorizontal, randVals(9*7, 8, 1)))
	// A pyramid shares the directory reader but is BigTIFF, which Decode
	// does not take.
	pyr := writePyramidFromImage(f, img, PyramidOpts{TileW: 16, TileH: 16, MinSide: 4})
	if _, err := Decode(bytes.NewReader(pyr)); !errors.Is(err, ErrCorrupt) {
		f.Fatalf("Decode of a pyramid: err = %v, want ErrCorrupt-classified", err)
	}
	f.Add(pyr)

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Decode(bytes.NewReader(data))
		if err != nil {
			// Rejecting is fine; panicking is not — and every rejection
			// must carry the ErrCorrupt classification so the stitcher can
			// mark the tile permanently degraded instead of retrying.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error not classified as ErrCorrupt: %v", err)
			}
			return
		}
		if img.W <= 0 || img.H <= 0 || len(img.Pix) != img.W*img.H {
			t.Fatalf("accepted malformed image: %dx%d with %d pixels", img.W, img.H, len(img.Pix))
		}
	})
}

// FuzzPyramidRoundTrip drives OpenPyramid + tile reads over arbitrary
// bytes, seeded with real pyramid files. The reader backs the long-lived
// tile server, so a corrupt or adversarial pyramid must reject with an
// ErrCorrupt-classified error — never panic, never hand back a
// malformed tile. The same bytes, read as pixels, go through the writer
// with a fuzzed number of deflate helpers: the file must be the one the
// helperless writer produces, and must read back as those pixels.
func FuzzPyramidRoundTrip(f *testing.F) {
	img := tile.NewGray16(75, 50)
	for i := range img.Pix {
		img.Pix[i] = uint16(i * 257)
	}
	// The Deflate pyramids, II and MM, carry Predictor 2.
	for _, opts := range []PyramidOpts{
		{TileW: 32, TileH: 32, MinSide: 40},
		{TileW: 32, TileH: 32, MinSide: 40, NoDeflate: true},
		{TileW: 16, TileH: 16, MinSide: 40, BigEndian: true},
	} {
		var sb seekBuffer
		pw, err := NewPyramidWriter(&sb, img.W, img.H, opts)
		if err != nil {
			f.Fatal(err)
		}
		cur := img
		for l := 0; l < pw.NumLevels(); l++ {
			if err := pw.WriteRows(l, cur.Pix, cur.H); err != nil {
				f.Fatal(err)
			}
			if l+1 < pw.NumLevels() {
				cur = halveImage(cur)
			}
		}
		if err := pw.Close(); err != nil {
			f.Fatal(err)
		}
		valid := sb.buf
		f.Add(valid, byte(0))
		f.Add(valid[:len(valid)/2], byte(1))
		f.Add(valid[:16], byte(2))
		flipped := append([]byte(nil), valid...)
		flipped[11] ^= 0xff // first-IFD offset bit flip
		f.Add(flipped, byte(3))
		if !opts.NoDeflate && !opts.BigEndian {
			f.Add(withTag(f, valid, tagPredictor, 3), byte(0))
		}
	}
	f.Add([]byte("II+\x00\x08\x00\x00\x00"), byte(1))
	var classic bytes.Buffer
	if err := Encode(&classic, img, EncodeOpts{TileW: 32, TileH: 32, Deflate: true}); err != nil {
		f.Fatal(err)
	}
	f.Add(classic.Bytes(), byte(2)) // shares the directory reader, but is not BigTIFF
	f.Add(bytes.Repeat([]byte{0xff}, 64), byte(3))

	f.Fuzz(func(t *testing.T, data []byte, helpers byte) {
		fuzzWriteRoundTrip(t, data, int(helpers%4))

		p, err := OpenPyramid(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open error not classified as ErrCorrupt: %v", err)
			}
			return
		}
		for l := 0; l < p.NumLevels(); l++ {
			lv := p.Level(l)
			for _, tc := range [][2]int{{0, 0}, {lv.Across - 1, lv.Down - 1}} {
				tl, err := p.ReadTileAt(l, tc[0], tc[1])
				if err != nil {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("tile error not classified as ErrCorrupt: %v", err)
					}
					continue
				}
				if tl.W <= 0 || tl.H <= 0 || len(tl.Pix) != tl.W*tl.H {
					t.Fatalf("accepted malformed tile: %dx%d with %d pixels", tl.W, tl.H, len(tl.Pix))
				}
			}
		}
	})
}

// fuzzWriteRoundTrip reads data as an image (first two bytes pick the
// width and options, the rest are pixels), writes it with no helpers and
// with a pool of that many, and checks the two files are the same bytes
// and decode to the image.
func fuzzWriteRoundTrip(t *testing.T, data []byte, helpers int) {
	if len(data) < 4 {
		return
	}
	w := 1 + int(data[0])%80
	opts := PyramidOpts{TileW: 16, TileH: 32, MinSide: 24, NoDeflate: data[1]&1 != 0, BigEndian: data[1]&2 != 0}
	px := data[2:]
	if len(px) > 2*4096 {
		px = px[:2*4096]
	}
	h := len(px) / 2 / w
	if h == 0 {
		return
	}
	img := tile.NewGray16(w, h)
	for i := range img.Pix {
		img.Pix[i] = uint16(px[2*i]) | uint16(px[2*i+1])<<8
	}
	serial := writePyramidFromImage(t, img, opts)
	pool := fft.NewWorkerPool(helpers)
	opts.Runner = pool
	piped := writePyramidFromImage(t, img, opts)
	pool.Close()
	if !bytes.Equal(serial, piped) {
		t.Fatalf("%dx%d image: %d helpers wrote a different file than none", w, h, helpers)
	}
	p, err := OpenPyramid(bytes.NewReader(piped))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Image(0)
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, got, img)
}
