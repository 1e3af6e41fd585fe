// Command stitch runs the full three-phase pipeline on a tile dataset:
// relative displacements (any of the six implementations), global
// position resolution, and optional composite rendering.
//
// Usage:
//
//	stitch -dir dataset/                      # stitch a genplate dataset
//	stitch -synthetic 8x10 -impl pipelined-gpu -gpus 2
//	stitch -dir dataset/ -out composite.png -highlight grid.png
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprof-addr exposes the default mux
	"os"
	"strings"
	"time"

	"hybridstitch/internal/compose"
	"hybridstitch/internal/fault"
	"hybridstitch/internal/fft"
	"hybridstitch/internal/global"
	"hybridstitch/internal/gpu"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/memgov"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stitch: ")
	var (
		dir       = flag.String("dir", "", "dataset directory written by genplate")
		synthetic = flag.String("synthetic", "", "generate an in-memory dataset instead, as ROWSxCOLS (e.g. 8x10)")
		tileW     = flag.Int("tilew", 256, "tile width for -synthetic")
		tileH     = flag.Int("tileh", 192, "tile height for -synthetic")
		implName  = flag.String("impl", "pipelined-cpu", "implementation: fiji, simple-cpu, mt-cpu, pipelined-cpu, simple-gpu, pipelined-gpu")
		threads   = flag.Int("threads", 4, "CPU worker threads")
		gpus      = flag.Int("gpus", 1, "simulated GPU count (GPU implementations)")
		travName  = flag.String("traversal", "chained-diagonal", "grid traversal order")
		npeaks    = flag.Int("npeaks", 1, "correlation peaks to consider per pair (CPU implementations)")
		sockets   = flag.Int("sockets", 1, "CPU pipelines (pipelined-cpu; one per socket)")
		outPNG    = flag.String("out", "", "write the composite image to this PNG")
		outTIFF   = flag.String("out-tiff", "", "write the composite image to this 16-bit TIFF (tiled layout for large plates)")
		compOut   = flag.String("compose-out", "", "compose out-of-core into this multi-resolution pyramid file (BigTIFF; serve it with `plateview -serve`)")
		compBudg  = flag.Int64("compose-budget", 256<<20, "memory budget in bytes for -compose-out band sizing")
		highlight = flag.String("highlight", "", "write a tile-outline overlay to this PNG")
		blendName = flag.String("blend", "overlay", "composite blend: overlay, average, linear")
		solver    = flag.String("solver", "mst", "phase-2 solver: mst (spanning tree) or ls (least squares)")
		stretch   = flag.Bool("stretch", true, "contrast-stretch the composite PNG for display")
		refine    = flag.Bool("refine", false, "repair low-confidence pairs via CCF search from the stage model before phase 2")
		saveDisp  = flag.String("save-displacements", "", "write the phase-1 displacement arrays to this JSON file")
		seed      = flag.Int64("seed", 1, "seed for -synthetic")
		faultSpec = flag.String("fault-spec", "", "fault-injection spec, e.g. \"stitch.read@r003:always;gpu.kernel.fft:nth=5\" (testing); sites: "+fault.SiteNames())
		maxRetry  = flag.Int("max-retries", 2, "re-attempts per faulted operation before degrading")
		degrade   = flag.Bool("degrade", true, "finish with degraded tiles/pairs on persistent per-tile faults instead of aborting")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace_event JSON timeline of the run to this file")
		metricsOu = flag.String("metrics-out", "", "write the metrics snapshot (counters/gauges/histograms) as JSON to this file")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	// One recorder spans all three phases and every GPU device, so spans
	// share a single clock epoch and land in one timeline.
	var rec *obs.Recorder
	if *traceOut != "" || *metricsOu != "" {
		rec = obs.New()
		defer rec.Close()
		defer func() { writeObs(rec, *traceOut, *metricsOu, *implName) }()
	}

	src, truthX, truthY, err := openSource(*dir, *synthetic, *tileW, *tileH, *seed)
	if err != nil {
		log.Fatal(err)
	}
	impl, err := stitch.ByName(*implName)
	if err != nil {
		log.Fatal(err)
	}
	trav, err := stitch.TraversalByName(*travName)
	if err != nil {
		log.Fatal(err)
	}

	injector, err := fault.ParseSpec(*faultSpec)
	if err != nil {
		log.Fatalf("-fault-spec: %v", err)
	}
	tiffio.SetInjector(injector)

	opts := stitch.Options{Threads: *threads, Traversal: trav, NPeaks: *npeaks, Sockets: *sockets,
		Faults: injector, MaxRetries: *maxRetry, RetryBackoff: 5 * time.Millisecond,
		Degrade: *degrade && *implName != "fiji", Obs: rec}
	var devs []*gpu.Device
	if *implName == "simple-gpu" || *implName == "pipelined-gpu" {
		for d := 0; d < *gpus; d++ {
			dev := gpu.New(gpu.Config{Name: fmt.Sprintf("GPU%d", d), Faults: injector, Obs: rec})
			defer dev.Close()
			devs = append(devs, dev)
		}
		opts.Devices = devs
	}

	g := src.Grid()
	fmt.Printf("phase 1: %s on %dx%d grid of %dx%d tiles (%d pairs)...\n",
		impl.Name(), g.Rows, g.Cols, g.TileW, g.TileH, g.NumPairs())
	res, err := impl.Run(src, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %v  (%d transforms computed at %dx%d, peak %d resident)\n",
		res.Elapsed.Round(time.Millisecond), res.TransformsComputed, res.TransformW, res.TransformH, res.PeakTransformsLive)
	if s := degradedSummary(res); s != "" {
		fmt.Print(s)
	}
	if injector != nil {
		fmt.Printf("  fault injector fired %d times\n", injector.Fired())
	}
	if *refine {
		n, err := global.RefineResult(res, src, global.RefineOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  refined %d low-confidence pairs from the stage model\n", n)
	}
	if *saveDisp != "" {
		if err := stitch.SaveResult(*saveDisp, res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote displacements to %s\n", *saveDisp)
	}

	t0 := time.Now()
	var pl *global.Placement
	switch *solver {
	case "mst":
		pl, err = global.Solve(res, global.Options{RepairOutliers: true, Obs: rec})
	case "ls":
		pl, err = global.SolveLeastSquares(res, global.LSOptions{Pool: opts.TransformPool(), Obs: rec})
	default:
		log.Fatalf("unknown -solver %q (want mst or ls)", *solver)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(phase2Summary(time.Since(t0), pl))
	if truthX != nil {
		if rms, err := global.RMSError(pl, truthX, truthY); err == nil {
			fmt.Printf("  placement RMS vs ground truth: %.2f px\n", rms)
		}
	}

	if *outPNG == "" && *highlight == "" && *outTIFF == "" && *compOut == "" {
		return
	}
	blend, err := parseBlend(*blendName)
	if err != nil {
		log.Fatal(err)
	}
	out := phase3Outputs{png: *outPNG, tiff: *outTIFF, highlight: *highlight, pyramid: *compOut,
		stretch: *stretch, budget: *compBudg}
	// Degraded tiles render as blank background rather than failing the
	// composite read.
	if err := phase3(rec, pl, stitch.MaskDegraded(src, res), blend, out, opts.TransformPool()); err != nil {
		log.Fatal(err)
	}
}

// phase3Outputs names the files phase 3 writes; an empty name skips one.
type phase3Outputs struct {
	png, tiff, highlight string // from one in-memory composite
	pyramid              string // composed again, out of core
	stretch              bool   // contrast-stretch the PNG
	budget               int64  // memory budget for the pyramid's bands
}

// phase3 writes the requested outputs of pl's composite. The PNG, TIFF
// and highlight share one in-memory composite, so the plate is composed
// once for all three.
func phase3(rec *obs.Recorder, pl *global.Placement, src stitch.Source, blend compose.Blend, out phase3Outputs, pool *fft.WorkerPool) error {
	t0 := time.Now()
	if out.png != "" || out.tiff != "" || out.highlight != "" {
		img, err := compose.ComposeObs(rec, pl, src, blend)
		if err != nil {
			return err
		}
		if out.png != "" {
			view := img
			if out.stretch {
				if view, err = compose.Stretch(img, 0.5, 99.8); err != nil {
					return err
				}
			}
			if err := compose.WritePNGFile(out.png, view); err != nil {
				return err
			}
			fmt.Printf("phase 3: wrote %s (%dx%d, %s blend) in %v\n", out.png, img.W, img.H, blend, time.Since(t0).Round(time.Millisecond))
		}
		if out.tiff != "" {
			if err := compose.WriteTIFFFile(out.tiff, img); err != nil {
				return err
			}
			fmt.Printf("phase 3: wrote %s (%dx%d 16-bit TIFF)\n", out.tiff, img.W, img.H)
		}
		if out.highlight != "" {
			if err := compose.WriteRGBAPNGFile(out.highlight, compose.HighlightGrid(img, pl)); err != nil {
				return err
			}
			fmt.Printf("phase 3: wrote %s (tile outlines)\n", out.highlight)
		}
	}
	if out.pyramid != "" {
		// Out-of-core path: band-by-band composition into a pyramid file,
		// with the band height sized from the governor budget. This is
		// the route for plates whose composite exceeds RAM — bit-identical
		// pixels, bounded working set.
		gov := memgov.New(out.budget, 0)
		if rec != nil {
			gov.SetObs(rec)
		}
		t0 = time.Now()
		err := compose.ComposeShardedFile(pl, src, out.pyramid, compose.ShardedOpts{
			Blend: blend, Gov: gov, Rec: rec, Pool: pool,
		})
		if err != nil {
			return err
		}
		_, peak, _, _ := gov.Stats()
		w, h := pl.Bounds()
		fmt.Printf("phase 3: wrote %s (%dx%d pyramid, %s blend, peak %d bytes of %d budget) in %v\n",
			out.pyramid, w, h, blend, peak, out.budget, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

// writeObs flushes the run's observability outputs. Deferred from main
// so it runs after the GPU devices close (their timelines share rec).
func writeObs(rec *obs.Recorder, traceOut, metricsOut, impl string) {
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			log.Printf("-trace-out: %v", err)
			return
		}
		err = rec.WriteChromeTrace(f, map[string]string{"impl": impl})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Printf("-trace-out: %v", err)
			return
		}
		fmt.Printf("wrote Chrome trace to %s (load in chrome://tracing or ui.perfetto.dev)\n", traceOut)
	}
	if metricsOut != "" {
		snap := rec.Snapshot()
		snap.Label = impl
		snap.Date = time.Now().Format("2006-01-02")
		if err := obs.WriteSnapshotFile(metricsOut, snap); err != nil {
			log.Printf("-metrics-out: %v", err)
			return
		}
		fmt.Printf("wrote metrics snapshot to %s\n", metricsOut)
	}
}

// phase2Summary is the line printed after phase 2. The duration keeps
// microseconds: a spanning-tree solve of a small plate takes well under a
// millisecond.
func phase2Summary(d time.Duration, pl *global.Placement) string {
	w, h := pl.Bounds()
	return fmt.Sprintf("phase 2: global positions in %v (%d repaired, %d dropped edges); composite %dx%d px\n",
		d.Round(time.Microsecond), pl.Repaired, pl.Dropped, w, h)
}

// degradedSummary renders the casualty block printed after phase 1, or
// "" for a clean run.
func degradedSummary(res *stitch.Result) string {
	if !res.Degraded() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  DEGRADED: %d tiles, %d pairs lost to persistent faults\n",
		len(res.DegradedTiles), len(res.DegradedPairs))
	for _, dt := range res.DegradedTiles {
		fmt.Fprintf(&b, "    tile %v: %v\n", dt.Coord, dt.Err)
	}
	for _, dp := range res.DegradedPairs {
		fmt.Fprintf(&b, "    pair %v: %v\n", dp.Pair, dp.Err)
	}
	return b.String()
}

// openSource builds the tile source from flags, returning ground truth
// when available.
func openSource(dir, synthetic string, tileW, tileH int, seed int64) (stitch.Source, []int, []int, error) {
	switch {
	case dir != "" && synthetic != "":
		return nil, nil, nil, fmt.Errorf("-dir and -synthetic are mutually exclusive")
	case dir != "":
		src, meta, err := stitch.OpenDataset(dir)
		if err != nil {
			return nil, nil, nil, err
		}
		return src, meta.TruthX, meta.TruthY, nil
	case synthetic != "":
		var rows, cols int
		if _, err := fmt.Sscanf(synthetic, "%dx%d", &rows, &cols); err != nil {
			return nil, nil, nil, fmt.Errorf("bad -synthetic %q, want ROWSxCOLS", synthetic)
		}
		p := imagegen.DefaultParams(rows, cols, tileW, tileH)
		p.Seed = seed
		ds, err := imagegen.Generate(p)
		if err != nil {
			return nil, nil, nil, err
		}
		return &stitch.MemorySource{DS: ds}, ds.TruthX, ds.TruthY, nil
	default:
		return nil, nil, nil, fmt.Errorf("need -dir or -synthetic (try: stitch -synthetic 6x8)")
	}
}

func parseBlend(name string) (compose.Blend, error) {
	switch name {
	case "overlay":
		return compose.BlendOverlay, nil
	case "average":
		return compose.BlendAverage, nil
	case "linear":
		return compose.BlendLinear, nil
	default:
		return 0, fmt.Errorf("unknown blend %q", name)
	}
}
