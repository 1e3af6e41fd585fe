package tiffio

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"hybridstitch/internal/tile"
)

// seekBuffer is an in-memory io.WriteSeeker for pyramid tests.
type seekBuffer struct {
	buf []byte
	pos int64
}

func (s *seekBuffer) Write(p []byte) (int, error) {
	if need := s.pos + int64(len(p)); need > int64(len(s.buf)) {
		grown := make([]byte, need)
		copy(grown, s.buf)
		s.buf = grown
	}
	copy(s.buf[s.pos:], p)
	s.pos += int64(len(p))
	return len(p), nil
}

func (s *seekBuffer) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case 0:
		s.pos = off
	case 1:
		s.pos += off
	case 2:
		s.pos = int64(len(s.buf)) + off
	}
	if s.pos < 0 {
		return 0, fmt.Errorf("seek before start")
	}
	return s.pos, nil
}

// --- chunkLayout: the offset math behind both classic writers ---

func TestChunkLayoutAssignsSequentialOffsets(t *testing.T) {
	offs, cnts, end, err := chunkLayout(8, []int{100, 50, 0, 7})
	if err != nil {
		t.Fatal(err)
	}
	wantOffs := []uint64{8, 108, 158, 158}
	wantCnts := []uint64{100, 50, 0, 7}
	for i := range wantOffs {
		if offs[i] != wantOffs[i] || cnts[i] != wantCnts[i] {
			t.Fatalf("chunk %d: got (%d,%d), want (%d,%d)", i, offs[i], cnts[i], wantOffs[i], wantCnts[i])
		}
	}
	if end != 165 {
		t.Fatalf("end = %d, want 165", end)
	}
}

func TestChunkLayoutOverflow(t *testing.T) {
	// A chunk that starts past 4 GiB must be rejected, not wrapped. No
	// fixture needed: the math is exercised directly with 1 GiB sizes.
	gib := 1 << 30
	cases := []struct {
		name  string
		sizes []int
	}{
		{"chunk starts past 4GiB", []int{gib, gib, gib, gib, 1}},
		{"data ends past 4GiB", []int{gib, gib, gib, gib}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := chunkLayout(8, tc.sizes)
			if !errors.Is(err, ErrOffsetOverflow) {
				t.Fatalf("err = %v, want ErrOffsetOverflow", err)
			}
		})
	}
}

func TestChunkLayoutBoundary(t *testing.T) {
	// Ending exactly at MaxUint32 is representable; one byte more is not.
	fit := int(math.MaxUint32 - 8)
	if _, _, end, err := chunkLayout(8, []int{fit}); err != nil || end != math.MaxUint32 {
		t.Fatalf("exact fit: end=%d err=%v", end, err)
	}
	if _, _, _, err := chunkLayout(8, []int{fit + 1}); !errors.Is(err, ErrOffsetOverflow) {
		t.Fatalf("one past: err = %v, want ErrOffsetOverflow", err)
	}
	if _, _, _, err := chunkLayout(8, []int{-1}); err == nil || errors.Is(err, ErrOffsetOverflow) {
		t.Fatalf("negative size: err = %v, want plain error", err)
	}
}

func TestEncodeOverflowSurfacesError(t *testing.T) {
	// The public writers must surface ErrOffsetOverflow from the layout
	// step. Exercised via chunkLayout above; here we only pin that the
	// error text steers to the pyramid writer.
	if want := "ComposeSharded"; !bytes.Contains([]byte(ErrOffsetOverflow.Error()), []byte(want)) {
		t.Fatalf("ErrOffsetOverflow %q does not mention %s", ErrOffsetOverflow, want)
	}
}

// --- deflate-compressed tiled round-trips ---

func TestTiledDeflateRoundTrip(t *testing.T) {
	// Dimensions chosen to be non-multiples of the tile size so edge
	// tiles are zero-padded and then clipped on decode.
	cases := []struct{ w, h, tw, th int }{
		{100, 70, 64, 64},   // partial right and bottom tiles
		{64, 64, 64, 64},    // exactly one tile
		{65, 1, 64, 16},     // single pixel row, two tiles across
		{16, 130, 16, 64},   // tall, partial bottom
		{200, 200, 48, 112}, // non-square tiles
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%dx%d_tile%dx%d", tc.w, tc.h, tc.tw, tc.th), func(t *testing.T) {
			img := randImage(tc.w, tc.h, int64(tc.w*1000+tc.h))
			got := roundTrip(t, img, EncodeOpts{TileW: tc.tw, TileH: tc.th, Deflate: true})
			assertEqual(t, got, img)
		})
	}
}

func TestTiledDeflateBigEndianRoundTrip(t *testing.T) {
	img := randImage(90, 45, 7)
	got := roundTrip(t, img, EncodeOpts{TileW: 32, TileH: 32, Deflate: true, BigEndian: true})
	assertEqual(t, got, img)
}

func TestTiledDeflateSmallerFileOnFlatImage(t *testing.T) {
	img := tile.NewGray16(256, 256) // all zeros: maximally compressible
	var plain, comp bytes.Buffer
	if err := Encode(&plain, img, EncodeOpts{TileW: 64, TileH: 64}); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&comp, img, EncodeOpts{TileW: 64, TileH: 64, Deflate: true}); err != nil {
		t.Fatal(err)
	}
	if comp.Len() >= plain.Len() {
		t.Fatalf("deflate did not shrink a flat image: %d >= %d", comp.Len(), plain.Len())
	}
}

func TestDeflateRequiresTiledLayout(t *testing.T) {
	var buf bytes.Buffer
	err := Encode(&buf, randImage(8, 8, 1), EncodeOpts{Deflate: true})
	if err == nil {
		t.Fatal("strip-layout Deflate encode succeeded; want error")
	}
}

// --- pyramid writer / reader ---

func TestPyramidLevelDims(t *testing.T) {
	dims := PyramidLevelDims(1000, 600, 256)
	want := [][2]int{{1000, 600}, {500, 300}, {250, 150}}
	if len(dims) != len(want) {
		t.Fatalf("dims = %v, want %v", dims, want)
	}
	for i := range want {
		if dims[i] != want[i] {
			t.Fatalf("dims = %v, want %v", dims, want)
		}
	}
	if d := PyramidLevelDims(100, 100, 256); len(d) != 1 {
		t.Fatalf("small image grew levels: %v", d)
	}
	if d := PyramidLevelDims(1, 1, 0); len(d) != 1 {
		t.Fatalf("1x1 minSide 0: %v", d)
	}
}

// writePyramidFromImage feeds img into a PyramidWriter level by level,
// computing reduced levels with the same recursive in-memory halving the
// reader tests compare against. Rows are delivered in uneven chunks to
// exercise the staging logic.
func writePyramidFromImage(t testing.TB, img *tile.Gray16, opts PyramidOpts) []byte {
	t.Helper()
	var sb seekBuffer
	pw, err := NewPyramidWriter(&sb, img.W, img.H, opts)
	if err != nil {
		t.Fatal(err)
	}
	cur := img
	for l := 0; l < pw.NumLevels(); l++ {
		w, h := pw.LevelDims(l)
		if cur.W != w || cur.H != h {
			t.Fatalf("level %d dims %dx%d, want %dx%d", l, w, h, cur.W, cur.H)
		}
		for y := 0; y < h; {
			n := 1 + (y+l)%5 // uneven chunking
			if y+n > h {
				n = h - y
			}
			if err := pw.WriteRows(l, cur.Pix[y*w:(y+n)*w], n); err != nil {
				t.Fatalf("WriteRows level %d row %d: %v", l, y, err)
			}
			y += n
		}
		if l+1 < pw.NumLevels() {
			cur = halveImage(cur)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	return sb.buf
}

// halveImage is the reference 2x box-filter reduction (round to
// nearest), duplicated here so pyramid files are checked against an
// independent implementation.
func halveImage(img *tile.Gray16) *tile.Gray16 {
	nw, nh := (img.W+1)/2, (img.H+1)/2
	out := tile.NewGray16(nw, nh)
	for y := 0; y < nh; y++ {
		for x := 0; x < nw; x++ {
			var sum, cnt uint32
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					sx, sy := 2*x+dx, 2*y+dy
					if sx < img.W && sy < img.H {
						sum += uint32(img.At(sx, sy))
						cnt++
					}
				}
			}
			out.Pix[y*nw+x] = uint16((sum + cnt/2) / cnt)
		}
	}
	return out
}

func TestPyramidRoundTrip(t *testing.T) {
	for _, opts := range []PyramidOpts{
		{TileW: 64, TileH: 64, MinSide: 100},
		{TileW: 64, TileH: 64, MinSide: 100, NoDeflate: true},
		{TileW: 64, TileH: 64, MinSide: 100, BigEndian: true},
		{TileW: 48, TileH: 32, MinSide: 60},
	} {
		t.Run(fmt.Sprintf("%+v", opts), func(t *testing.T) {
			img := randImage(330, 190, 42) // non-divisible by tile size
			data := writePyramidFromImage(t, img, opts)

			p, err := OpenPyramid(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			wantDims := PyramidLevelDims(img.W, img.H, opts.withDefaults().MinSide)
			if p.NumLevels() != len(wantDims) {
				t.Fatalf("NumLevels = %d, want %d", p.NumLevels(), len(wantDims))
			}
			cur := img
			for l := 0; l < p.NumLevels(); l++ {
				lv := p.Level(l)
				if lv.W != wantDims[l][0] || lv.H != wantDims[l][1] {
					t.Fatalf("level %d is %dx%d, want %dx%d", l, lv.W, lv.H, wantDims[l][0], wantDims[l][1])
				}
				got, err := p.Image(l)
				if err != nil {
					t.Fatalf("Image(%d): %v", l, err)
				}
				assertEqual(t, got, cur)
				if l+1 < p.NumLevels() {
					cur = halveImage(cur)
				}
			}
		})
	}
}

func TestPyramidEdgeTileClipping(t *testing.T) {
	img := randImage(100, 70, 9)
	data := writePyramidFromImage(t, img, PyramidOpts{TileW: 64, TileH: 64, MinSide: 256})
	p, err := OpenPyramid(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	lv := p.Level(0)
	if lv.Across != 2 || lv.Down != 2 {
		t.Fatalf("grid %dx%d, want 2x2", lv.Down, lv.Across)
	}
	// Bottom-right edge tile must come back clipped to 36x6.
	tl, err := p.ReadTileAt(0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.W != 36 || tl.H != 6 {
		t.Fatalf("edge tile is %dx%d, want 36x6", tl.W, tl.H)
	}
	for y := 0; y < tl.H; y++ {
		for x := 0; x < tl.W; x++ {
			if got, want := tl.At(x, y), img.At(64+x, 64+y); got != want {
				t.Fatalf("edge tile (%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestPyramidWriterErrors(t *testing.T) {
	var sb seekBuffer
	if _, err := NewPyramidWriter(&sb, 0, 10, PyramidOpts{}); err == nil {
		t.Fatal("empty pyramid accepted")
	}
	if _, err := NewPyramidWriter(&sb, 10, 10, PyramidOpts{TileW: 30, TileH: 64}); err == nil {
		t.Fatal("tile width not multiple of 16 accepted")
	}

	pw, err := NewPyramidWriter(&sb, 100, 100, PyramidOpts{TileW: 64, TileH: 64})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]uint16, 100)
	if err := pw.WriteRows(3, rows, 1); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	if err := pw.WriteRows(0, rows[:50], 1); err == nil {
		t.Fatal("short row accepted")
	}
	if err := pw.Close(); err == nil {
		t.Fatal("Close with missing rows succeeded")
	}
	if err := pw.WriteRows(0, rows, 1); err == nil {
		t.Fatal("WriteRows after Close succeeded")
	}
}

func TestPyramidWriterRowOverflow(t *testing.T) {
	var sb seekBuffer
	pw, err := NewPyramidWriter(&sb, 32, 4, PyramidOpts{TileW: 32, TileH: 32, MinSide: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Abort()
	rows := make([]uint16, 32*4)
	if err := pw.WriteRows(0, rows, 4); err != nil {
		t.Fatal(err)
	}
	if err := pw.WriteRows(0, rows[:32], 1); err == nil {
		t.Fatal("row overflow accepted")
	}
}

func TestOpenPyramidRejectsClassic(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, randImage(20, 20, 3), EncodeOpts{TileW: 16, TileH: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPyramid(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("classic TIFF: err = %v, want ErrCorrupt-classified", err)
	}
}

func TestOpenPyramidRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("not a tiff"),
		{'I', 'I', 43, 0},
		{'I', 'I', 43, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // zero first-IFD offset
	} {
		if _, err := OpenPyramid(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("garbage %q: err = %v, want ErrCorrupt-classified", data, err)
		}
	}
}

func TestPyramidFileRoundTrip(t *testing.T) {
	img := randImage(150, 90, 11)
	data := writePyramidFromImage(t, img, PyramidOpts{TileW: 64, TileH: 64, MinSide: 64})
	path := t.TempDir() + "/plate.ptif"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	pf, err := OpenPyramidFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	got, err := pf.Image(0)
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, got, img)
}
