package main

import (
	"bytes"
	"fmt"
	"image"
	"image/png"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"hybridstitch/internal/obs"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tileserve"
)

// tileAddr addresses one pyramid tile, as in GET /tile/{level}/{tx}/{ty}.
type tileAddr struct{ level, tx, ty int }

// panSteps is how many one-tile pans a viewer session makes at level 0.
const panSteps = 8

// sessions returns n requests of back-to-back viewer sessions: zoom from
// the overview down to level 0 at a random point of the plate, then
// panSteps one-tile pans. The upper levels are shared between sessions
// and stay cached; the level-0 walk is what misses.
func sessions(pyr *tiffio.Pyramid, rng *rand.Rand, n int) []tileAddr {
	reqs := make([]tileAddr, 0, n+pyr.NumLevels()+panSteps)
	l0 := pyr.Level(0)
	for len(reqs) < n {
		fx, fy := rng.Float64(), rng.Float64()
		var at tileAddr
		for l := pyr.NumLevels() - 1; l >= 0; l-- {
			lv := pyr.Level(l)
			at = tileAddr{l, int(fx * float64(lv.Across)), int(fy * float64(lv.Down))}
			reqs = append(reqs, at)
		}
		for s := 0; s < panSteps; s++ {
			switch rng.Intn(4) {
			case 0:
				at.tx = min(at.tx+1, l0.Across-1)
			case 1:
				at.tx = max(at.tx-1, 0)
			case 2:
				at.ty = min(at.ty+1, l0.Down-1)
			case 3:
				at.ty = max(at.ty-1, 0)
			}
			reqs = append(reqs, at)
		}
	}
	return reqs[:n]
}

// clientLists splits a round of n requests among the clients, each with
// its own seeded sessions.
func clientLists(pyr *tiffio.Pyramid, seed int64, clients, n int) [][]tileAddr {
	lists := make([][]tileAddr, clients)
	for c := range lists {
		share := n / clients
		if c < n%clients {
			share++
		}
		lists[c] = sessions(pyr, rand.New(rand.NewSource(seed+int64(c))), share)
	}
	return lists
}

// tileServer is a fresh tileserve.Server on a real HTTP listener.
type tileServer struct {
	srv    *tileserve.Server
	ts     *httptest.Server
	client *http.Client
}

func startTileServer(pyr *tiffio.Pyramid, clients int, rec *obs.Recorder) *tileServer {
	srv := tileserve.New(pyr, tileserve.Options{CacheBytes: serveCache, Rec: rec})
	ts := httptest.NewServer(srv)
	// One kept-alive connection per client, no more.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
	return &tileServer{srv, ts, client}
}

func (s *tileServer) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// get fetches one tile and returns the PNG bytes.
func (s *tileServer) get(a tileAddr) ([]byte, error) {
	resp, err := s.client.Get(fmt.Sprintf("%s/tile/%d/%d/%d", s.ts.URL, a.level, a.tx, a.ty))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("tile %v: %s", a, resp.Status)
	}
	return body, nil
}

// round is one closed-loop load round against a fresh server.
type round struct {
	latMs     []float64 // per completed request
	wall      time.Duration
	failed    int
	bodyBytes int64
	hits      int64
	misses    int64
	evictions int64
}

// load runs one round: every client sends its list in order and waits
// for each reply before sending the next (a closed loop: viewers wait
// for their tile), so a slower server receives less load.
func (s *tileServer) load(lists [][]tileAddr, tr *tracer) *round {
	r := &round{}
	root := tr.begin(-1, layerBench, "serve-round")
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	for _, list := range lists {
		wg.Add(1)
		go func(list []tileAddr) {
			defer wg.Done()
			lat := make([]float64, 0, len(list))
			var failed int
			var size int64
			for _, a := range list {
				t := time.Now()
				id := tr.begin(root, layerTileserve, "request")
				body, err := s.get(a)
				tr.end(id)
				if err != nil {
					failed++
					continue
				}
				lat = append(lat, time.Since(t).Seconds()*1e3)
				size += int64(len(body))
			}
			mu.Lock()
			r.latMs = append(r.latMs, lat...)
			r.failed += failed
			r.bodyBytes += size
			mu.Unlock()
		}(list)
	}
	wg.Wait()
	r.wall = time.Since(start)
	tr.end(root)
	r.hits, r.misses, r.evictions, _ = s.srv.CacheStats()
	return r
}

// servedEqualsStored fetches a over HTTP, decodes the PNG and compares
// it pixel by pixel with the tile read straight from the pyramid.
func (s *tileServer) servedEqualsStored(pyr *tiffio.Pyramid, a tileAddr) (bool, error) {
	body, err := s.get(a)
	if err != nil {
		return false, err
	}
	img, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	gray, ok := img.(*image.Gray16)
	if !ok {
		return false, fmt.Errorf("tile %v: served as %T, want 16-bit gray", a, img)
	}
	want, err := pyr.ReadTileAt(a.level, a.tx, a.ty)
	if err != nil {
		return false, err
	}
	if gray.Rect.Dx() != want.W || gray.Rect.Dy() != want.H {
		return false, nil
	}
	for y := 0; y < want.H; y++ {
		for x := 0; x < want.W; x++ {
			if gray.Gray16At(x, y).Y != want.At(x, y) {
				return false, nil
			}
		}
	}
	return true, nil
}

// sampleTiles draws n seeded tile addresses, level 0 mostly.
func sampleTiles(pyr *tiffio.Pyramid, rng *rand.Rand, n int) []tileAddr {
	addrs := make([]tileAddr, n)
	for i := range addrs {
		l := 0
		if i%8 == 7 {
			l = rng.Intn(pyr.NumLevels())
		}
		lv := pyr.Level(l)
		addrs[i] = tileAddr{l, rng.Intn(lv.Across), rng.Intn(lv.Down)}
	}
	return addrs
}
