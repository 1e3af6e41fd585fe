package tiffio

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"hybridstitch/internal/tile"
)

// These tests pin the horizontal predictor (TIFF 6.0 §14, Predictor=2)
// from outside the chunk codec: written tiles are decoded by a spec
// oracle that shares no code with unpackTile, and the reader is fed files
// whose tiles are built here, by hand, in every form it must accept or
// reject. A bug made on both sides of the codec (differencing bytes
// instead of samples, or in the host's byte order) survives a round trip
// but not these.

// fileOrder parses a file's byte-order mark and the offset and entry
// layout of its first IFD, for classic TIFF and BigTIFF alike.
func fileOrder(t testing.TB, data []byte) (bo binary.ByteOrder, f format, ifd uint64) {
	t.Helper()
	bo = binary.LittleEndian
	if string(data[:2]) == "MM" {
		bo = binary.BigEndian
	}
	f = classicTIFF
	if bo.Uint16(data[2:]) == bigTIFF.version {
		f = bigTIFF
	}
	return bo, f, getUint(bo, data[f.headerSize()-f.word:], f.word)
}

// withTag returns a copy of data with the inline value of tag in the
// first IFD set to v, in the entry's own type and the file's byte order.
func withTag(t testing.TB, data []byte, tag uint16, v uint64) []byte {
	t.Helper()
	data = append([]byte(nil), data...)
	bo, f, ifd := fileOrder(t, data)
	n := getUint(bo, data[ifd:], f.countSize)
	for i := uint64(0); i < n; i++ {
		e := data[ifd+f.countSize+i*f.entrySize():]
		if bo.Uint16(e) == tag {
			putUint(bo, e[4+f.word:], typeSize(bo.Uint16(e[2:])), v)
			return data
		}
	}
	t.Fatalf("tag %d not in the first IFD", tag)
	return nil
}

// tagValue returns the inline value of tag in the first IFD, and whether
// the tag is there.
func tagValue(t testing.TB, data []byte, tag uint16) (uint64, bool) {
	t.Helper()
	bo, f, ifd := fileOrder(t, data)
	n := getUint(bo, data[ifd:], f.countSize)
	for i := uint64(0); i < n; i++ {
		e := data[ifd+f.countSize+i*f.entrySize():]
		if bo.Uint16(e) == tag {
			return getUint(bo, e[4+f.word:], typeSize(bo.Uint16(e[2:]))), true
		}
	}
	return 0, false
}

// oracleTile decodes the stored tile payload the way the specification
// reads it, with no code from the chunk codec: inflate the zlib stream,
// then take a running 16-bit sum along each stored row, in bo order. It
// returns the tw×th stored samples, padding included.
func oracleTile(t *testing.T, payload []byte, tw, th int, bo binary.ByteOrder) []uint16 {
	t.Helper()
	zr, err := zlib.NewReader(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 2*tw*th {
		t.Fatalf("tile inflates to %d bytes, want %d", len(raw), 2*tw*th)
	}
	out := make([]uint16, tw*th)
	for y := 0; y < th; y++ {
		var acc uint16
		for x := 0; x < tw; x++ {
			acc += bo.Uint16(raw[2*(y*tw+x):])
			out[y*tw+x] = acc
		}
	}
	return out
}

// checkOracle compares every tile of dir, read by the oracle, with img
// zero-padded to whole tiles.
func checkOracle(t *testing.T, r io.ReaderAt, d *directory, img *tile.Gray16, bo binary.ByteOrder) {
	t.Helper()
	for ty := 0; ty < d.down; ty++ {
		for tx := 0; tx < d.across; tx++ {
			payload, err := d.readTile(r, ty*d.across+tx, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := oracleTile(t, payload, d.tileW, d.tileH, bo)
			for y := 0; y < d.tileH; y++ {
				for x := 0; x < d.tileW; x++ {
					var want uint16
					if px, py := tx*d.tileW+x, ty*d.tileH+y; px < img.W && py < img.H {
						want = img.At(px, py)
					}
					if got[y*d.tileW+x] != want {
						t.Fatalf("tile (%d,%d) sample (%d,%d) = %d, want %d", tx, ty, x, y, got[y*d.tileW+x], want)
					}
				}
			}
		}
	}
}

func TestDeflateTilesMatchSpecOracle(t *testing.T) {
	// 75 wide at 32-wide tiles: the right-hand tiles hold 11 columns.
	img := mixedImage(75, 50, 3)
	for _, bigEndian := range []bool{false, true} {
		t.Run(fmt.Sprintf("classic_bigendian=%v", bigEndian), func(t *testing.T) {
			var buf bytes.Buffer
			if err := Encode(&buf, img, EncodeOpts{TileW: 32, TileH: 16, Deflate: true, BigEndian: bigEndian}); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			if v, ok := tagValue(t, data, tagPredictor); !ok || v != 2 {
				t.Fatalf("Predictor = %d (present %v), want 2", v, ok)
			}
			bo, f, ifd := fileOrder(t, data)
			d, err := f.readDir(bytes.NewReader(data), bo, ifd)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, bytes.NewReader(data), d, img, bo)
		})
		t.Run(fmt.Sprintf("pyramid_bigendian=%v", bigEndian), func(t *testing.T) {
			data := writePyramidFromImage(t, img, PyramidOpts{TileW: 32, TileH: 16, MinSide: 20, BigEndian: bigEndian})
			if v, ok := tagValue(t, data, tagPredictor); !ok || v != 2 {
				t.Fatalf("Predictor = %d (present %v), want 2", v, ok)
			}
			p, err := OpenPyramid(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if p.NumLevels() < 2 {
				t.Fatalf("%d levels, want a chain", p.NumLevels())
			}
			cur := img
			for l := 0; l < p.NumLevels(); l++ {
				checkOracle(t, bytes.NewReader(data), p.levels[l].dir, cur, p.bo)
				cur = halveImage(cur)
			}
		})
	}
}

// craftTiled builds a classic tiled file of w×h samples of the given
// width, tw×th tiles (tw == 0 makes one strip instead), stored by hand:
// each row's samples, as differences when predictor is 2, in bo order,
// then zlib at the default level when compression is 8. vals must fit
// in bits.
func craftTiled(t testing.TB, bo binary.ByteOrder, bits, w, h, tw, th int, compression, predictor uint64, vals []uint16) []byte {
	t.Helper()
	strips := tw == 0
	if strips {
		tw, th = w, h
	}
	var chunks [][]byte
	for y0 := 0; y0 < h; y0 += th {
		for x0 := 0; x0 < w; x0 += tw {
			var raw []byte
			for y := y0; y < y0+th; y++ {
				var prev uint16
				for x := x0; x < x0+tw; x++ {
					var v uint16
					if x < w && y < h {
						v = vals[y*w+x]
					}
					s := v
					if predictor == predictorHorizontal {
						s, prev = v-prev, v
					}
					if bits == 8 {
						raw = append(raw, byte(s))
					} else {
						raw = append(raw, 0, 0)
						bo.PutUint16(raw[len(raw)-2:], s)
					}
				}
			}
			if compression == compressionDeflate {
				var z bytes.Buffer
				zw := zlib.NewWriter(&z)
				zw.Write(raw)
				zw.Close()
				raw = z.Bytes()
			}
			chunks = append(chunks, raw)
		}
	}
	sizes := make([]int, len(chunks))
	for i, c := range chunks {
		sizes[i] = len(c)
	}
	offs, cnts, ifd, err := chunkLayout(classicTIFF.headerSize(), sizes)
	if err != nil {
		t.Fatal(err)
	}
	fields := []field{
		one(tagImageWidth, typeLong, w),
		one(tagImageLength, typeLong, h),
		one(tagBitsPerSample, typeShort, bits),
		{tagCompression, typeShort, []uint64{compression}},
		one(tagPhotometric, typeShort, photometricMinIsBlack),
	}
	if strips {
		fields = append(fields,
			field{tagStripOffsets, typeLong, offs},
			one(tagSamplesPerPixel, typeShort, 1),
			one(tagRowsPerStrip, typeLong, h),
			field{tagStripByteCounts, typeLong, cnts},
			field{tagPredictor, typeShort, []uint64{predictor}})
	} else {
		fields = append(fields,
			one(tagSamplesPerPixel, typeShort, 1),
			field{tagPredictor, typeShort, []uint64{predictor}},
			one(tagTileWidth, typeLong, tw),
			one(tagTileLength, typeLong, th),
			field{tagTileOffsets, typeLong, offs},
			field{tagTileByteCounts, typeLong, cnts})
	}
	dir, err := classicTIFF.encodeDir(bo, ifd, fields, false)
	if err != nil {
		t.Fatal(err)
	}
	out := classicTIFF.header(bo, ifd)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return append(out, dir...)
}

// randVals returns n samples below 2^bits.
func randVals(n, bits int, seed int64) []uint16 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]uint16, n)
	for i := range v {
		v[i] = uint16(rng.Intn(1 << bits))
	}
	return v
}

func TestDecodeUndoesPredictor(t *testing.T) {
	const w, h = 37, 21 // edge tiles 5 wide and 5 tall at 16×16
	for _, bits := range []int{8, 16} {
		for _, bo := range []binary.ByteOrder{binary.LittleEndian, binary.BigEndian} {
			for _, predictor := range []uint64{predictorNone, predictorHorizontal} {
				t.Run(fmt.Sprintf("%dbit_%v_predictor%d", bits, bo, predictor), func(t *testing.T) {
					vals := randVals(w*h, bits, int64(bits)+int64(predictor))
					data := craftTiled(t, bo, bits, w, h, 16, 16, compressionDeflate, predictor, vals)
					img, err := Decode(bytes.NewReader(data))
					if err != nil {
						t.Fatal(err)
					}
					for i, v := range vals {
						if bits == 8 {
							v *= 257
						}
						if img.Pix[i] != v {
							t.Fatalf("pixel %d = %d, want %d", i, img.Pix[i], v)
						}
					}
				})
			}
		}
	}
}

func TestReaderRejectsPredictorItCannotUndo(t *testing.T) {
	img := randImage(40, 20, 5)
	files := map[string][]byte{
		"pyramid_II": writePyramidFromImage(t, img, PyramidOpts{TileW: 16, TileH: 16, MinSide: 40}),
		"pyramid_MM": writePyramidFromImage(t, img, PyramidOpts{TileW: 16, TileH: 16, MinSide: 40, BigEndian: true}),
	}
	for _, bigEndian := range []bool{false, true} {
		var buf bytes.Buffer
		if err := Encode(&buf, img, EncodeOpts{TileW: 16, TileH: 16, Deflate: true, BigEndian: bigEndian}); err != nil {
			t.Fatal(err)
		}
		files[fmt.Sprintf("classic_deflate_bigendian=%v", bigEndian)] = buf.Bytes()
	}
	cases := map[string][]byte{}
	for name, data := range files {
		cases[name+"_predictor3"] = withTag(t, data, tagPredictor, 3)
	}
	vals := randVals(40*20, 16, 1)
	cases["raw_strips_predictor2"] = craftTiled(t, binary.LittleEndian, 16, 40, 20, 0, 0, compressionNone, predictorHorizontal, vals)
	cases["raw_tiles_predictor2"] = craftTiled(t, binary.BigEndian, 16, 40, 20, 16, 16, compressionNone, predictorHorizontal, vals)
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			var err error
			if strings.HasPrefix(name, "pyramid") {
				_, err = OpenPyramid(bytes.NewReader(data))
			} else {
				_, err = Decode(bytes.NewReader(data))
			}
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "tag 317") {
				t.Fatalf("err = %v, want an ErrCorrupt-classified error naming tag 317", err)
			}
		})
	}
	// Predictor 1 is no predictor: stated on raw strips it changes nothing.
	got, err := Decode(bytes.NewReader(craftTiled(t, binary.LittleEndian, 16, 40, 20, 0, 0, compressionNone, predictorNone, vals)))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got.Pix[i] != v {
			t.Fatalf("pixel %d = %d, want %d", i, got.Pix[i], v)
		}
	}
}
