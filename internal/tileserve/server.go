// Package tileserve is the read-heavy half of the production story the
// paper's future-work section sketches (stitch once, serve millions):
// an HTTP deep-zoom tile server over a stitched pyramid file. Requests
// address tiles as /tile/{level}/{tx}/{ty}; decoding goes through a
// content-addressed LRU keyed on the hash of the stored (compressed)
// payload plus the decoded dimensions, so identical same-size payloads
// — blank agar around the colonies deflates to identical bytes — share
// one cache entry no matter how many tile addresses they appear at,
// while edge tiles (clipped smaller on decode) stay distinct.
package tileserve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	"image/png"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hybridstitch/internal/obs"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
)

// Options configures a Server.
type Options struct {
	// CacheBytes bounds the decoded-tile LRU (default 64 MiB). Entry
	// cost is the decoded pixel size, not the compressed payload.
	CacheBytes int64
	// Rec records serve.tile.* counters, the latency histogram, and the
	// cache-size gauge (nil skips recording).
	Rec *obs.Recorder
}

// cacheKey is the content address of a decoded tile: the SHA-256 of the
// stored payload bytes plus the decoded dimensions. The dimensions are
// part of the key because edge-tile payloads are zero-padded to the full
// TileW×TileH before compression but decode clipped to the level bounds,
// so a blank interior tile and a blank edge tile share payload bytes yet
// decode to different images.
type cacheKey struct {
	sum  [sha256.Size]byte
	w, h int
}

type cacheEntry struct {
	key  cacheKey
	img  *tile.Gray16
	cost int64
}

// flightCall is one in-progress decode other requesters wait on
// (singleflight: N concurrent misses on one key decode once).
type flightCall struct {
	done chan struct{}
	img  *tile.Gray16
	err  error
}

// Server serves deep-zoom tiles from a pyramid with a bounded
// content-addressed decode cache. Safe for concurrent use.
type Server struct {
	pyr *tiffio.Pyramid

	mu       sync.Mutex
	lru      *list.List // front = most recent; values are *cacheEntry
	byKey    map[cacheKey]*list.Element
	inflight map[cacheKey]*flightCall
	bytes    int64
	budget   int64

	hits, misses, evictions int64

	cHits, cMisses, cEvict, cErrors *obs.Counter
	hLatency                        *obs.Histogram
	gBytes                          *obs.Gauge

	mux *http.ServeMux
}

// New builds a server over an opened pyramid.
func New(pyr *tiffio.Pyramid, opts Options) *Server {
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 64 << 20
	}
	s := &Server{
		pyr:      pyr,
		lru:      list.New(),
		byKey:    make(map[cacheKey]*list.Element),
		inflight: make(map[cacheKey]*flightCall),
		budget:   opts.CacheBytes,
		cHits:    opts.Rec.Counter(obs.CounterServeTileHits),
		cMisses:  opts.Rec.Counter(obs.CounterServeTileMisses),
		cEvict:   opts.Rec.Counter(obs.CounterServeTileEvictions),
		cErrors:  opts.Rec.Counter(obs.CounterServeTileErrors),
		hLatency: opts.Rec.Histogram(obs.HistServeTileSeconds),
		gBytes:   opts.Rec.Gauge(obs.GaugeServeCacheBytes),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /info", s.handleInfo)
	s.mux.HandleFunc("GET /tile/{level}/{tx}/{ty}", s.handleTile)
	return s
}

// etag is the key as a strong HTTP entity tag: the served PNG is a pure
// function of the decoded pixels, which the key addresses.
func (k cacheKey) etag() string {
	return fmt.Sprintf(`"%s-%dx%d"`, hex.EncodeToString(k.sum[:]), k.w, k.h)
}

// etagListed reports whether an If-None-Match header value names etag
// (or is "*"). The comparison is the weak one the header calls for, so a
// W/ prefix a proxy added is ignored.
func etagListed(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimPrefix(strings.TrimSpace(c), "W/")
		if c == etag || c == "*" {
			return true
		}
	}
	return false
}

// lookup reads the stored payload of (level, tx, ty) and derives its
// content key.
func (s *Server) lookup(level, tx, ty int) ([]byte, cacheKey, error) {
	payload, err := s.pyr.TilePayload(level, tx, ty)
	if err != nil {
		return nil, cacheKey{}, err
	}
	// TilePayload validated the address, so Level and the clip math are
	// in range here.
	lv := s.pyr.Level(level)
	return payload, cacheKey{
		sum: sha256.Sum256(payload),
		w:   min(lv.TileW, lv.W-tx*lv.TileW),
		h:   min(lv.TileH, lv.H-ty*lv.TileH),
	}, nil
}

// Tile returns the decoded tile at (level, tx, ty), through the cache.
func (s *Server) Tile(level, tx, ty int) (*tile.Gray16, error) {
	payload, key, err := s.lookup(level, tx, ty)
	if err != nil {
		return nil, err
	}
	return s.decoded(level, tx, ty, payload, key)
}

// decoded returns the tile payload decodes to, from the cache when its
// content is there.
func (s *Server) decoded(level, tx, ty int, payload []byte, key cacheKey) (*tile.Gray16, error) {
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		s.hits++
		s.mu.Unlock()
		s.cHits.Add(1)
		return el.Value.(*cacheEntry).img, nil
	}
	if fc, ok := s.inflight[key]; ok {
		// Another goroutine is decoding this content; wait for it. A
		// follower counts as a hit: the content was decoded once.
		s.mu.Unlock()
		<-fc.done
		if fc.err != nil {
			return nil, fc.err
		}
		s.mu.Lock()
		if el, ok := s.byKey[key]; ok {
			s.lru.MoveToFront(el)
		}
		s.hits++
		s.mu.Unlock()
		s.cHits.Add(1)
		return fc.img, nil
	}
	fc := &flightCall{done: make(chan struct{})}
	s.inflight[key] = fc
	s.mu.Unlock()

	img, err := s.pyr.DecodePayload(level, tx, ty, payload)
	fc.img, fc.err = img, err

	s.mu.Lock()
	delete(s.inflight, key)
	if err == nil {
		s.insertLocked(key, img)
		s.misses++
	}
	cacheBytes := s.bytes
	s.mu.Unlock()
	close(fc.done)
	if err != nil {
		return nil, err
	}
	s.cMisses.Add(1)
	s.gBytes.Set(float64(cacheBytes))
	return img, nil
}

// insertLocked adds a decoded tile and evicts from the cold end until
// the budget holds. Call with s.mu held.
func (s *Server) insertLocked(key cacheKey, img *tile.Gray16) {
	if _, ok := s.byKey[key]; ok {
		return // raced with another decode of identical content
	}
	cost := int64(len(img.Pix) * 2)
	el := s.lru.PushFront(&cacheEntry{key: key, img: img, cost: cost})
	s.byKey[key] = el
	s.bytes += cost
	for s.bytes > s.budget && s.lru.Len() > 1 {
		cold := s.lru.Back()
		ce := cold.Value.(*cacheEntry)
		s.lru.Remove(cold)
		delete(s.byKey, ce.key)
		s.bytes -= ce.cost
		s.evictions++
		s.cEvict.Add(1)
	}
}

// CacheStats reports cache behavior for tests and the experiments
// report.
func (s *Server) CacheStats() (hits, misses, evictions, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.evictions, s.bytes
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// levelInfo is one entry of the /info response.
type levelInfo struct {
	Level  int `json:"level"`
	W      int `json:"w"`
	H      int `json:"h"`
	TileW  int `json:"tile_w"`
	TileH  int `json:"tile_h"`
	Across int `json:"across"`
	Down   int `json:"down"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	infos := make([]levelInfo, s.pyr.NumLevels())
	for l := range infos {
		lv := s.pyr.Level(l)
		infos[l] = levelInfo{Level: l, W: lv.W, H: lv.H, TileW: lv.TileW, TileH: lv.TileH, Across: lv.Across, Down: lv.Down}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Levels []levelInfo `json:"levels"`
	}{infos})
}

func (s *Server) handleTile(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	level, err1 := strconv.Atoi(r.PathValue("level"))
	tx, err2 := strconv.Atoi(r.PathValue("tx"))
	ty, err3 := strconv.Atoi(r.PathValue("ty"))
	if err1 != nil || err2 != nil || err3 != nil {
		s.cErrors.Add(1)
		http.Error(w, "tile address must be numeric", http.StatusBadRequest)
		return
	}
	payload, key, err := s.lookup(level, tx, ty)
	etag := key.etag()
	var img *tile.Gray16
	if err == nil {
		// The content key is known before any pixel work: a client that
		// already holds this content is answered without decode or encode.
		if etagListed(r.Header.Get("If-None-Match"), etag) {
			cacheHeaders(w, etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		img, err = s.decoded(level, tx, ty, payload, key)
	}
	if err != nil {
		s.cErrors.Add(1)
		// Address-range errors are the client's fault; corrupt pyramids
		// and I/O failures are ours and must not read as "tile missing"
		// to clients or monitoring.
		status := http.StatusNotFound
		if errors.Is(err, tiffio.ErrCorrupt) {
			status = http.StatusInternalServerError
		}
		http.Error(w, err.Error(), status)
		return
	}
	gray := image.NewGray16(image.Rect(0, 0, img.W, img.H))
	for i, v := range img.Pix {
		gray.Pix[2*i], gray.Pix[2*i+1] = byte(v>>8), byte(v)
	}
	w.Header().Set("Content-Type", "image/png")
	cacheHeaders(w, etag)
	if err := pngEncoder.Encode(w, gray); err != nil {
		// Headers are gone; nothing to do but record it.
		s.cErrors.Add(1)
		return
	}
	s.hLatency.ObserveDuration(time.Since(start))
}

// cacheHeaders marks a tile response as immutable content named by etag.
func cacheHeaders(w http.ResponseWriter, etag string) {
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
}

// pngEncoder is png.Encode's encoder (default compression, so the served
// bytes are the same) keeping its zlib state and row buffers between
// requests.
var pngEncoder = png.Encoder{BufferPool: new(pngBuffers)}

type pngBuffers sync.Pool

func (p *pngBuffers) Get() *png.EncoderBuffer {
	b, _ := (*sync.Pool)(p).Get().(*png.EncoderBuffer)
	return b
}

func (p *pngBuffers) Put(b *png.EncoderBuffer) { (*sync.Pool)(p).Put(b) }

// ServePyramidFile opens the pyramid at path and serves it on addr,
// blocking. The plateview CLI's -serve mode is this.
func ServePyramidFile(path, addr string, opts Options) error {
	pf, err := tiffio.OpenPyramidFile(path)
	if err != nil {
		return fmt.Errorf("tileserve: %w", err)
	}
	defer pf.Close()
	return http.ListenAndServe(addr, New(pf.Pyramid, opts))
}
