package tiffio

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"hybridstitch/internal/tile"
)

func randImage(w, h int, seed int64) *tile.Gray16 {
	rng := rand.New(rand.NewSource(seed))
	img := tile.NewGray16(w, h)
	for i := range img.Pix {
		img.Pix[i] = uint16(rng.Intn(65536))
	}
	return img
}

func roundTrip(t *testing.T, img *tile.Gray16, opts EncodeOpts) *tile.Gray16 {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, img, opts); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func assertEqual(t *testing.T, got, want *tile.Gray16) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("dims %dx%d, want %dx%d", got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("pixel %d: got %d want %d", i, got.Pix[i], want.Pix[i])
		}
	}
}

func TestRoundTripLittleEndian(t *testing.T) {
	img := randImage(37, 23, 1)
	assertEqual(t, roundTrip(t, img, EncodeOpts{}), img)
}

func TestRoundTripBigEndian(t *testing.T) {
	img := randImage(16, 16, 2)
	assertEqual(t, roundTrip(t, img, EncodeOpts{BigEndian: true}), img)
}

func TestRoundTripMultiStrip(t *testing.T) {
	// RowsPerStrip 3 with 10 rows → 4 strips, last one short.
	img := randImage(12, 10, 3)
	assertEqual(t, roundTrip(t, img, EncodeOpts{RowsPerStrip: 3}), img)
}

func TestRoundTripSingleRowStrips(t *testing.T) {
	img := randImage(9, 7, 4)
	assertEqual(t, roundTrip(t, img, EncodeOpts{RowsPerStrip: 1}), img)
}

func TestRoundTripWideImageDefaultStrips(t *testing.T) {
	// Width 8192 makes one row > 8KiB, forcing rps clamp to 1.
	img := randImage(8192, 3, 5)
	assertEqual(t, roundTrip(t, img, EncodeOpts{}), img)
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, ws, hs, rs uint8) bool {
		w := int(ws)%40 + 1
		h := int(hs)%40 + 1
		img := randImage(w, h, seed)
		var buf bytes.Buffer
		if err := Encode(&buf, img, EncodeOpts{RowsPerStrip: int(rs) % (h + 2), BigEndian: seed%2 == 0}); err != nil {
			return false
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		if got.W != w || got.H != h {
			return false
		}
		for i := range img.Pix {
			if got.Pix[i] != img.Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDecode8Bit(t *testing.T) {
	// Hand-assemble a tiny 8-bit 2x2 little-endian TIFF.
	// header(8) + pixels(4) + IFD
	pix := []byte{0, 128, 255, 17}
	var buf bytes.Buffer
	buf.Write([]byte{'I', 'I', 42, 0, 12, 0, 0, 0}) // IFD at 12
	buf.Write(pix)
	// 8 entries
	type e struct {
		tag, typ uint16
		cnt, val uint32
	}
	entries := []e{
		{tagImageWidth, typeShort, 1, 2},
		{tagImageLength, typeShort, 1, 2},
		{tagBitsPerSample, typeShort, 1, 8},
		{tagCompression, typeShort, 1, 1},
		{tagPhotometric, typeShort, 1, 1},
		{tagStripOffsets, typeLong, 1, 8},
		{tagRowsPerStrip, typeShort, 1, 2},
		{tagStripByteCounts, typeLong, 1, 4},
	}
	var cnt [2]byte
	cnt[0] = byte(len(entries))
	buf.Write(cnt[:])
	for _, en := range entries {
		var b [12]byte
		b[0] = byte(en.tag)
		b[1] = byte(en.tag >> 8)
		b[2] = byte(en.typ)
		b[3] = byte(en.typ >> 8)
		b[4] = byte(en.cnt)
		if en.typ == typeShort {
			b[8] = byte(en.val)
			b[9] = byte(en.val >> 8)
		} else {
			b[8] = byte(en.val)
			b[9] = byte(en.val >> 8)
			b[10] = byte(en.val >> 16)
			b[11] = byte(en.val >> 24)
		}
		buf.Write(b[:])
	}
	buf.Write([]byte{0, 0, 0, 0}) // next IFD
	img, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint16{0, 128 * 257, 255 * 257, 17 * 257}
	for i, v := range want {
		if img.Pix[i] != v {
			t.Errorf("pixel %d = %d, want %d", i, img.Pix[i], v)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":      {},
		"bad mark":   {'X', 'X', 42, 0, 8, 0, 0, 0},
		"bad magic":  {'I', 'I', 43, 0, 8, 0, 0, 0},
		"bad offset": {'I', 'I', 42, 0, 2, 0, 0, 0},
		"no ifd":     {'I', 'I', 42, 0, 8, 0, 0, 0},
	}
	for name, data := range cases {
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, tile.NewGray16(0, 5), EncodeOpts{}); err == nil {
		t.Error("empty image should fail")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tile.tif")
	img := randImage(20, 15, 9)
	if err := WriteFile(path, img); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, got, img)
	if _, err := ReadFile(filepath.Join(dir, "missing.tif")); err == nil {
		t.Error("missing file should fail")
	}
	if !os.IsNotExist(func() error { _, err := ReadFile(filepath.Join(dir, "missing.tif")); return err }()) {
		t.Error("missing file should return an IsNotExist error")
	}
}

func TestDecodeDimensionsViaLongTags(t *testing.T) {
	// Our encoder writes LONG dims; verify decode handles it (covered by
	// round trip) and that a 1x1 image works.
	img := tile.NewGray16(1, 1)
	img.Pix[0] = 4242
	assertEqual(t, roundTrip(t, img, EncodeOpts{}), img)
}

func TestTiledRoundTrip(t *testing.T) {
	// Image smaller than, equal to, and straddling tile boundaries.
	for _, dims := range [][2]int{{10, 10}, {64, 64}, {100, 70}, {65, 33}} {
		img := randImage(dims[0], dims[1], int64(dims[0]))
		got := roundTrip(t, img, EncodeOpts{TileW: 64, TileH: 32})
		assertEqual(t, got, img)
	}
}

func TestTiledBigEndianRoundTrip(t *testing.T) {
	img := randImage(90, 50, 77)
	got := roundTrip(t, img, EncodeOpts{TileW: 32, TileH: 16, BigEndian: true})
	assertEqual(t, got, img)
}

func TestTiledRejectsBadTileSize(t *testing.T) {
	var buf bytes.Buffer
	img := randImage(32, 32, 1)
	if err := Encode(&buf, img, EncodeOpts{TileW: 10, TileH: 16}); err == nil {
		t.Error("non-multiple-of-16 tile size should fail")
	}
}

func TestTiledProperty(t *testing.T) {
	f := func(seed int64, ws, hs uint8) bool {
		w := int(ws)%80 + 1
		h := int(hs)%80 + 1
		img := randImage(w, h, seed)
		var buf bytes.Buffer
		if err := Encode(&buf, img, EncodeOpts{TileW: 16, TileH: 16}); err != nil {
			return false
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		for i := range img.Pix {
			if got.Pix[i] != img.Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// goldenClassic are the SHA-256 of the files Encode writes for
// mixedImage(331, 191, 42), an image that divides evenly into neither the
// strips nor the tiles below. They cover both strip and tile layouts, both
// byte orders, raw and Deflate tiles, genplate's -tiled 64 form and the
// 256×256 tiling compose.WriteTIFFFile picks for large composites. The
// Deflate ones also pin the chunk codec's rule (Predictor=2, BestSpeed)
// and compress/flate's output (go1.24).
var goldenClassic = map[string]struct {
	opts EncodeOpts
	sum  string
}{
	"strips_II":        {EncodeOpts{}, "bf36793bafb7ac5bbdf475f82ec02677c6dff2e78d4e7d79c040a8854ecca459"},
	"strips_MM_rps2":   {EncodeOpts{BigEndian: true, RowsPerStrip: 2}, "29c33481dbcc37a9549041acc61ff6013295819a56f47c256c12a071554600a6"},
	"tiled64_raw_II":   {EncodeOpts{TileW: 64, TileH: 64}, "119368f64f72c03fccde86575725f758e969c598a46e6adc29c2e86aca350e3f"},
	"tiled_deflate_II": {EncodeOpts{TileW: 64, TileH: 48, Deflate: true}, "a4f454e8625c7f9fa99cd6d03cf5b0713b8f818d5d2efa0c34cfcb9bf20213ac"},
	"tiled_deflate_MM": {EncodeOpts{TileW: 64, TileH: 48, Deflate: true, BigEndian: true}, "f1f3909898222275eb5558222f3a228c6fa17cfb09369b247d881596571db502"},
	"tiled256_raw_II":  {EncodeOpts{TileW: 256, TileH: 256}, "783ce23dc9fc68915518d85076c21ff443e58df5848e132ac40c184ca200a346"},
}

func TestEncodeBytesGolden(t *testing.T) {
	img := mixedImage(331, 191, 42)
	for name, g := range goldenClassic {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Encode(&buf, img, g.opts); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != g.sum {
				t.Fatalf("file SHA-256 %s, want %s", got, g.sum)
			}
			assertEqual(t, roundTrip(t, img, g.opts), img)
		})
	}
}

// hostileTiles returns small valid files of a 16×16 image, one per
// reader path, with their TileWidth and TileLength rewritten to 4096: a
// header that claims tiles the file does not hold. In "classic_image"
// the image is rewritten to 4096×4096 too, so it claims its pixels as
// well.
func hostileTiles(t testing.TB) map[string][]byte {
	img := randImage(16, 16, 1)
	files := map[string][]byte{
		"pyramid": writePyramidFromImage(t, img, PyramidOpts{TileW: 16, TileH: 16, MinSide: 16}),
	}
	for name, opts := range map[string]EncodeOpts{
		"classic_raw":     {TileW: 16, TileH: 16},
		"classic_deflate": {TileW: 16, TileH: 16, Deflate: true},
		"classic_image":   {TileW: 16, TileH: 16, Deflate: true},
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, img, opts); err != nil {
			t.Fatal(err)
		}
		files[name] = buf.Bytes()
	}
	for name, data := range files {
		tags := []uint16{tagTileWidth, tagTileLength}
		if name == "classic_image" {
			tags = append(tags, tagImageWidth, tagImageLength)
		}
		for _, tag := range tags {
			data = withTag(t, data, tag, 4096)
		}
		files[name] = data
	}
	return files
}

// TestHostileTileHeaderAllocatesLittle pins that a header cannot buy an
// allocation: a reader rejects tiles the file does not hold as corrupt
// before allocating anything near the 32 MiB such a tile would take.
func TestHostileTileHeaderAllocatesLittle(t *testing.T) {
	for name, data := range hostileTiles(t) {
		t.Run(name, func(t *testing.T) {
			read := func() error {
				_, err := Decode(bytes.NewReader(data))
				return err
			}
			if name == "pyramid" {
				read = func() error {
					p, err := OpenPyramid(bytes.NewReader(data))
					if err == nil {
						_, err = p.ReadTileAt(0, 0, 0)
					}
					return err
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%d-byte file: err = %v, want ErrCorrupt-classified", len(data), err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
				t.Fatalf("%d-byte file: rejecting it allocated %d bytes", len(data), n)
			}
		})
	}
}
