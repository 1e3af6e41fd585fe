// Command plateview renders viewports of a stitched plate on demand —
// the standalone face of the paper's visualization prototype. It uses a
// dataset directory (genplate layout) plus either saved displacements
// (stitch -save-displacements) or a fresh phase-1 run, and renders any
// (x, y, w, h, level) viewport to PNG without composing the plate.
//
// With -serve it is instead an HTTP deep-zoom tile server over a
// pyramid file written by `stitch -compose-out` (no dataset needed):
// GET /info describes the levels, GET /tile/{level}/{tx}/{ty} returns
// one PNG tile through a content-addressed decoded-tile cache.
//
// Usage:
//
//	plateview -dir dataset -overview overview.png
//	plateview -dir dataset -disp disp.json -x 300 -y 200 -w 512 -h 384 -out view.png
//	plateview -pyramid plate.ptif -serve :8080 -serve-cache 268435456
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"hybridstitch/internal/compose"
	"hybridstitch/internal/global"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tile"
	"hybridstitch/internal/tileserve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("plateview: ")
	var (
		dir      = flag.String("dir", "", "dataset directory (genplate layout)")
		dispFile = flag.String("disp", "", "displacements JSON from `stitch -save-displacements` (computed fresh if absent)")
		x        = flag.Int("x", 0, "viewport left, plate pixels")
		y        = flag.Int("y", 0, "viewport top, plate pixels")
		w        = flag.Int("w", 512, "viewport width")
		h        = flag.Int("h", 384, "viewport height")
		level    = flag.Int("level", 0, "pyramid level (downsample by 2^level); the viewport snaps to the plate's 2^level grid, so it shows the pixels -serve serves at that level")
		out      = flag.String("out", "view.png", "output PNG for the viewport")
		overview = flag.String("overview", "", "also write a whole-plate overview PNG (max side 1024)")
		cache    = flag.Int("cache", 0, "decoded-tile cache bound (0 = 2×columns)")
		stretchF = flag.Bool("stretch", true, "contrast-stretch outputs for display")
		threads  = flag.Int("threads", runtime.GOMAXPROCS(0), "phase-1 worker threads when computing displacements fresh")
		solver   = flag.String("solver", "mst", "phase-2 solver: mst (spanning tree) or ls (least squares); matches `stitch -solver`")

		serveAddr  = flag.String("serve", "", "serve deep-zoom tiles over HTTP on this address (requires -pyramid)")
		pyramid    = flag.String("pyramid", "", "pyramid file written by `stitch -compose-out`")
		serveCache = flag.Int64("serve-cache", 64<<20, "tile-server decoded-tile cache budget, bytes")
	)
	flag.Parse()

	if *serveAddr != "" {
		if *pyramid == "" {
			log.Fatal("-serve needs -pyramid (a file written by `stitch -compose-out`)")
		}
		fmt.Printf("serving %s on %s (cache %d bytes)\n", *pyramid, *serveAddr, *serveCache)
		log.Fatal(tileserve.ServePyramidFile(*pyramid, *serveAddr, tileserve.Options{CacheBytes: *serveCache}))
	}
	if *dir == "" {
		log.Fatal("need -dir (a dataset written by genplate) or -serve with -pyramid")
	}

	src, _, err := stitch.OpenDataset(*dir)
	if err != nil {
		log.Fatal(err)
	}

	var res *stitch.Result
	if *dispFile != "" {
		res, err = stitch.LoadResult(*dispFile)
		if err != nil {
			log.Fatal(err)
		}
		if res.Grid != src.Grid() {
			log.Fatalf("displacements are for grid %+v, dataset is %+v", res.Grid, src.Grid())
		}
		fmt.Printf("loaded displacements from %s\n", *dispFile)
	} else {
		t0 := time.Now()
		res, err = freshDisplacements(src, *threads)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("computed displacements in %v (%d threads)\n", time.Since(t0).Round(time.Millisecond), *threads)
	}

	// Resolve positions with the same solver choices as cmd/stitch, so
	// the served mosaic matches the CLI's output for the same plate.
	var pl *global.Placement
	switch *solver {
	case "mst":
		pl, err = global.Solve(res, global.Options{RepairOutliers: true})
	case "ls":
		pl, err = global.SolveLeastSquares(res, global.LSOptions{})
	default:
		log.Fatalf("unknown -solver %q (want mst or ls)", *solver)
	}
	if err != nil {
		log.Fatal(err)
	}
	viewer, err := compose.NewViewer(pl, src, *cache)
	if err != nil {
		log.Fatal(err)
	}
	pw, ph := viewer.PlateBounds()
	fmt.Printf("plate: %dx%d px from %d tiles\n", pw, ph, src.Grid().NumTiles())

	save := func(path string, img *tile.Gray16) {
		if *stretchF {
			var err error
			if img, err = compose.Stretch(img, 0.5, 99.8); err != nil {
				log.Fatal(err)
			}
		}
		if err := compose.WritePNGFile(path, img); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%dx%d)\n", path, img.W, img.H)
	}

	if *overview != "" {
		img, lvl, err := viewer.Overview(1024)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("overview at pyramid level %d\n", lvl)
		save(*overview, img)
	}
	if *out != "" {
		img, err := viewer.RenderScaled(*x, *y, *w, *h, *level)
		if err != nil {
			log.Fatal(err)
		}
		save(*out, img)
	}
}

// freshDisplacements is phase 1 for a dataset without saved
// displacements. It passes no FFT planner, and needs none: the transform
// size and algorithms are rules, so this matches a `stitch` run pair for
// pair.
func freshDisplacements(src stitch.Source, threads int) (*stitch.Result, error) {
	return (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: threads})
}
