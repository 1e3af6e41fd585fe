package tileserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hybridstitch/internal/obs"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
)

// seekBuffer is an in-memory io.WriteSeeker.
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
	return s.pos, nil
}

// testPyramid builds an in-memory pyramid. Half the plate is textured,
// half is blank — the blank tiles compress to identical payloads, which
// is what exercises content addressing.
func testPyramid(t testing.TB, w, h int) *tiffio.Pyramid {
	t.Helper()
	img := tile.NewGray16(w, h)
	rng := rand.New(rand.NewSource(1))
	for y := 0; y < h; y++ {
		for x := 0; x < w/2; x++ {
			img.Pix[y*w+x] = uint16(rng.Intn(1 << 16))
		}
	}
	var sb seekBuffer
	pw, err := tiffio.NewPyramidWriter(&sb, w, h, tiffio.PyramidOpts{TileW: 32, TileH: 32, MinSide: 64})
	if err != nil {
		t.Fatal(err)
	}
	cur := img
	for l := 0; l < pw.NumLevels(); l++ {
		if err := pw.WriteRows(l, cur.Pix, cur.H); err != nil {
			t.Fatal(err)
		}
		if l+1 < pw.NumLevels() {
			cur = halve(cur)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := tiffio.OpenPyramid(bytes.NewReader(sb.buf))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func halve(img *tile.Gray16) *tile.Gray16 {
	nw, nh := (img.W+1)/2, (img.H+1)/2
	out := tile.NewGray16(nw, nh)
	for y := 0; y < nh; y++ {
		for x := 0; x < nw; x++ {
			var sum, cnt int
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					if 2*x+dx < img.W && 2*y+dy < img.H {
						sum += int(img.At(2*x+dx, 2*y+dy))
						cnt++
					}
				}
			}
			out.Pix[y*nw+x] = uint16((sum + cnt/2) / cnt)
		}
	}
	return out
}

func TestTileCacheHitsAndContentDedup(t *testing.T) {
	p := testPyramid(t, 256, 128)
	s := New(p, Options{})

	// First read: miss. Second read of the same address: hit.
	if _, err := s.Tile(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tile(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	hits, misses, _, _ := s.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}

	// The right half of the plate is blank: distinct addresses, one
	// payload hash — all but the first must be cache hits.
	lv := p.Level(0)
	blankStart := lv.Across / 2
	for ty := 0; ty < lv.Down; ty++ {
		for tx := blankStart; tx < lv.Across; tx++ {
			if _, err := s.Tile(0, tx, ty); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, misses2, _, _ := s.CacheStats()
	if misses2 != 2 { // the textured tile + one blank decode
		t.Fatalf("blank tiles were not content-deduped: %d misses, want 2", misses2)
	}
}

// TestEdgeTileNotDedupedWithInterior pins the cache-key regression on
// plates whose dimensions are not tile multiples: the writer zero-pads
// edge-tile payloads to full TileW×TileH before deflate, so a blank
// interior tile and a blank edge tile have identical payload bytes but
// must decode — and cache — to different dimensions.
func TestEdgeTileNotDedupedWithInterior(t *testing.T) {
	p := testPyramid(t, 256, 100) // 32x32 tiles: bottom row clips to 32x4
	lv := p.Level(0)
	edgeH := lv.H - (lv.Down-1)*lv.TileH
	if edgeH == lv.TileH {
		t.Fatal("test plate height must not be a tile multiple")
	}
	blankTx := lv.Across - 1 // right half of the plate is blank

	// Interior blank first, then the blank edge tile below it.
	s := New(p, Options{})
	interior, err := s.Tile(0, blankTx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if interior.W != lv.TileW || interior.H != lv.TileH {
		t.Fatalf("interior blank tile is %dx%d, want %dx%d", interior.W, interior.H, lv.TileW, lv.TileH)
	}
	edge, err := s.Tile(0, blankTx, lv.Down-1)
	if err != nil {
		t.Fatal(err)
	}
	if edge.W != lv.TileW || edge.H != edgeH {
		t.Fatalf("edge blank tile is %dx%d, want %dx%d", edge.W, edge.H, lv.TileW, edgeH)
	}

	// Reverse order on a fresh server: the clipped decode must not be
	// served at interior addresses either.
	s2 := New(p, Options{})
	if img, err := s2.Tile(0, blankTx, lv.Down-1); err != nil {
		t.Fatal(err)
	} else if img.H != edgeH {
		t.Fatalf("edge-first: edge tile height %d, want %d", img.H, edgeH)
	}
	if img, err := s2.Tile(0, blankTx, 0); err != nil {
		t.Fatal(err)
	} else if img.H != lv.TileH {
		t.Fatalf("edge-first: interior tile height %d, want %d", img.H, lv.TileH)
	}

	// Same-size blank tiles still dedup: interior blanks across the
	// blank half must cost one decode.
	s3 := New(p, Options{})
	for ty := 0; ty < lv.Down-1; ty++ {
		for tx := lv.Across / 2; tx < lv.Across; tx++ {
			if _, err := s3.Tile(0, tx, ty); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, misses, _, _ := s3.CacheStats()
	if misses != 1 {
		t.Fatalf("interior blank tiles not deduped: %d misses, want 1", misses)
	}
}

func TestCacheEviction(t *testing.T) {
	p := testPyramid(t, 256, 128)
	lv := p.Level(0)
	tileCost := int64(lv.TileW * lv.TileH * 2)
	// Budget for exactly two decoded tiles.
	s := New(p, Options{CacheBytes: 2 * tileCost})

	// Touch three distinct textured tiles (left half is random, so all
	// payloads differ): the first must be evicted.
	for tx := 0; tx < 3; tx++ {
		if _, err := s.Tile(0, tx%2, tx); err != nil { // tx varies ty too
			t.Fatal(err)
		}
	}
	_, _, evictions, bytes := s.CacheStats()
	if evictions == 0 {
		t.Fatal("no evictions with a 2-tile budget and 3 distinct tiles")
	}
	if bytes > 2*tileCost {
		t.Fatalf("cache holds %d bytes, budget %d", bytes, 2*tileCost)
	}
}

func TestConcurrentTileReads(t *testing.T) {
	// Hammer the cache from many goroutines under -race: every tile of
	// every level, many times over, with a budget small enough to force
	// constant eviction alongside the hits.
	p := testPyramid(t, 256, 128)
	lv := p.Level(0)
	s := New(p, Options{CacheBytes: 4 * int64(lv.TileW*lv.TileH*2)})

	want, err := p.Image(0)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				tx, ty := rng.Intn(lv.Across), rng.Intn(lv.Down)
				img, err := s.Tile(0, tx, ty)
				if err != nil {
					errs <- err
					return
				}
				// Spot-check one pixel against the assembled level.
				x, y := tx*lv.TileW, ty*lv.TileH
				if img.At(0, 0) != want.At(x, y) {
					errs <- fmt.Errorf("tile (%d,%d) pixel mismatch", tx, ty)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses, _, bytes := s.CacheStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("hits=%d misses=%d: expected both under contention", hits, misses)
	}
	if bytes > s.budget {
		t.Fatalf("cache bytes %d exceed budget %d", bytes, s.budget)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	p := testPyramid(t, 256, 128)
	rec := obs.New()
	defer rec.Close()
	s := New(p, Options{Rec: rec})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// /info describes every level.
	resp, err := http.Get(ts.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Levels []struct {
			W, H   int
			Across int
			Down   int
		} `json:"levels"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(info.Levels) != p.NumLevels() || info.Levels[0].W != 256 {
		t.Fatalf("bad /info: %+v", info)
	}

	// /tile returns a decodable PNG of the right size.
	resp, err = http.Get(ts.URL + "/tile/0/0/0")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		t.Fatalf("content-type %q", ct)
	}
	img, err := png.Decode(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if b := img.Bounds(); b.Dx() != 32 || b.Dy() != 32 {
		t.Fatalf("tile PNG is %dx%d, want 32x32", b.Dx(), b.Dy())
	}

	// Out-of-range and malformed addresses reject without panicking.
	for _, path := range []string{"/tile/9/0/0", "/tile/0/99/0", "/tile/0/x/0"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s returned 200", path)
		}
	}

	snap := rec.Snapshot()
	if snap.Counters[obs.CounterServeTileMisses] == 0 {
		t.Fatal("serve.tile.misses not recorded")
	}
	if snap.Counters[obs.CounterServeTileErrors] == 0 {
		t.Fatal("serve.tile.errors not recorded")
	}
	if snap.Histograms[obs.HistServeTileSeconds].Count == 0 {
		t.Fatal("serve.tile.seconds not recorded")
	}
}

// get fetches path from ts, optionally conditional on an entity tag, and
// returns the response with its body read.
func get(t *testing.T, ts *httptest.Server, path, ifNoneMatch string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestServedPNGBytesUnchanged(t *testing.T) {
	// The handler packs pixels straight into Gray16.Pix and encodes
	// through a pooled encoder; the bytes on the wire must be what
	// png.Encode makes of the tile set pixel by pixel, for full and
	// clipped tiles, on first and repeated (pooled-buffer) requests.
	p := testPyramid(t, 100, 70)
	s := New(p, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	lv := p.Level(0)
	for round := 0; round < 2; round++ {
		for _, addr := range [][2]int{{0, 0}, {lv.Across - 1, 0}, {lv.Across - 1, lv.Down - 1}} {
			tl, err := p.ReadTileAt(0, addr[0], addr[1])
			if err != nil {
				t.Fatal(err)
			}
			ref := image.NewGray16(image.Rect(0, 0, tl.W, tl.H))
			for y := 0; y < tl.H; y++ {
				for x := 0; x < tl.W; x++ {
					ref.SetGray16(x, y, color.Gray16{Y: tl.At(x, y)})
				}
			}
			var want bytes.Buffer
			if err := png.Encode(&want, ref); err != nil {
				t.Fatal(err)
			}
			resp, got := get(t, ts, fmt.Sprintf("/tile/0/%d/%d", addr[0], addr[1]), "")
			if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("tile %v round %d: status %d, %d bytes served, png.Encode gives %d", addr, round, resp.StatusCode, len(got), want.Len())
			}
		}
	}
}

func TestTileETagAndConditionalGet(t *testing.T) {
	p := testPyramid(t, 256, 100) // right half blank; bottom row of tiles clipped to 4 rows
	s := New(p, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	lv := p.Level(0)

	resp, body := get(t, ts, "/tile/0/0/0", "")
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || len(etag) < 3 || etag[0] != '"' || etag[len(etag)-1] != '"' {
		t.Fatalf("status %d, ETag %q: want 200 with a strong entity tag", resp.StatusCode, etag)
	}
	if len(body) == 0 || resp.Header.Get("Cache-Control") == "" {
		t.Fatalf("%d body bytes, Cache-Control %q", len(body), resp.Header.Get("Cache-Control"))
	}

	// A client holding the content is answered 304 before any decode.
	hits, misses, _, _ := s.CacheStats()
	for _, cond := range []string{etag, "W/" + etag, `"other", ` + etag, "*"} {
		resp, body = get(t, ts, "/tile/0/0/0", cond)
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 || resp.Header.Get("ETag") != etag {
			t.Fatalf("If-None-Match %s: status %d, %d body bytes, ETag %q", cond, resp.StatusCode, len(body), resp.Header.Get("ETag"))
		}
	}
	if h, m, _, _ := s.CacheStats(); h != hits || m != misses {
		t.Fatalf("304s touched the decode cache: hits %d→%d, misses %d→%d", hits, h, misses, m)
	}
	if resp, body = get(t, ts, "/tile/0/0/0", `"stale"`); resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("stale If-None-Match: status %d, %d body bytes", resp.StatusCode, len(body))
	}

	// The tag is the content key: blank interior tiles share it wherever
	// they sit, a textured tile and a clipped blank tile do not.
	blankA, _ := get(t, ts, fmt.Sprintf("/tile/0/%d/0", lv.Across-1), "")
	blankB, _ := get(t, ts, fmt.Sprintf("/tile/0/%d/1", lv.Across-2), "")
	edge, _ := get(t, ts, fmt.Sprintf("/tile/0/%d/%d", lv.Across-1, lv.Down-1), "")
	if a, b := blankA.Header.Get("ETag"), blankB.Header.Get("ETag"); a == "" || a != b {
		t.Fatalf("identical blank tiles have ETags %q and %q", a, b)
	}
	if a := blankA.Header.Get("ETag"); a == etag || a == edge.Header.Get("ETag") {
		t.Fatalf("ETag %q does not tell a blank tile from a textured or a clipped one", a)
	}

	// An error is not cacheable content.
	if resp, _ = get(t, ts, "/tile/0/99/0", etag); resp.StatusCode != http.StatusNotFound || resp.Header.Get("ETag") != "" {
		t.Fatalf("out-of-range tile: status %d, ETag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
}
