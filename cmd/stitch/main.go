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
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprof-addr exposes the default mux
	"os"
	"path/filepath"
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
	"hybridstitch/internal/tile"
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
		fftLayout = flag.String("fft", "real", "spectrum layout: real (real-to-complex half spectra, ~half the FFT work) or complex (the paper's baseline); the transform size is the FFT planner's choice either way")
		fftExec   = flag.String("fft-exec", "auto", "per-transform execution strategy: auto (measured at plan time), serial, split")
		sockets   = flag.Int("sockets", 1, "CPU pipelines (pipelined-cpu; one per socket)")
		outPNG    = flag.String("out", "", "write the composite image to this PNG")
		outTIFF   = flag.String("out-tiff", "", "write the composite image to this 16-bit TIFF (tiled layout for large plates)")
		compOut   = flag.String("compose-out", "", "compose out-of-core into this multi-resolution pyramid file (BigTIFF; serve it with `plateview -serve`)")
		compBudg  = flag.Int64("compose-budget", 256<<20, "memory budget in bytes for -compose-out band sizing")
		highlight = flag.String("highlight", "", "write a tile-outline overlay to this PNG")
		blendName = flag.String("blend", "overlay", "composite blend: overlay, average, linear")
		solver    = flag.String("solver", "mst", "phase-2 solver: mst (spanning tree) or ls (least squares)")
		lsSolver  = flag.String("ls-solver", "auto", "least-squares engine for -solver ls: auto (pcg on large plates), gs, pcg")
		lsPrecond = flag.String("ls-precond", "twolevel", "PCG preconditioner for -solver ls: twolevel, jacobi")
		stretch   = flag.Bool("stretch", true, "contrast-stretch the composite PNG for display")
		refine    = flag.Bool("refine", false, "repair low-confidence pairs via CCF search from the stage model before phase 2")
		wisdom    = flag.String("wisdom", "", "FFT wisdom file: imported if present, updated after the run")
		saveDisp  = flag.String("save-displacements", "", "write the phase-1 displacement arrays to this JSON file")
		seed      = flag.Int64("seed", 1, "seed for -synthetic")
		faultSpec = flag.String("fault-spec", "", "fault-injection spec, e.g. \"stitch.read@r003:always;gpu.kernel.fft:nth=5\" (testing)")
		maxRetry  = flag.Int("max-retries", 2, "re-attempts per faulted operation before degrading")
		degrade   = flag.Bool("degrade", true, "finish with degraded tiles/pairs on persistent per-tile faults instead of aborting")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace_event JSON timeline of the run to this file")
		metricsOu = flag.String("metrics-out", "", "write the metrics snapshot (counters/gauges/histograms) as JSON to this file")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration")
	)
	flag.Parse()

	fftVariant, ok := map[string]stitch.FFTVariant{"real": stitch.VariantReal, "complex": stitch.VariantComplex}[*fftLayout]
	if !ok {
		log.Fatalf("-fft: unknown layout %q (want real or complex)", *fftLayout)
	}

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
	// A rule on an unregistered site can never fire: catch the typo now
	// rather than after a clean run that was supposed to be faulty.
	for _, site := range injector.RuleSites() {
		if !fault.KnownSite(site) {
			log.Printf("warning: -fault-spec site %q is not a registered fault site (known sites: %s)",
				site, strings.Join(fault.Sites(), ", "))
		}
	}
	tiffio.SetInjector(injector)

	execStrategy, err := fft.ParseExecStrategy(*fftExec)
	if err != nil {
		log.Fatalf("-fft-exec: %v", err)
	}
	opts := stitch.Options{Threads: *threads, Traversal: trav, NPeaks: *npeaks,
		FFTVariant: fftVariant, Sockets: *sockets, FFTExec: execStrategy,
		Faults: injector, MaxRetries: *maxRetry, RetryBackoff: 5 * time.Millisecond,
		Degrade: *degrade && *implName != "fiji", Obs: rec}
	planner := fft.NewPlanner(fft.Measure)
	if *wisdom != "" {
		if blob, err := os.ReadFile(*wisdom); err == nil {
			if err := planner.ImportWisdom(blob); err != nil {
				log.Fatalf("wisdom file %s: %v", *wisdom, err)
			}
			fmt.Printf("imported FFT wisdom (%d entries)\n", planner.WisdomSize())
		}
	}
	opts.Planner = planner
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
	if *wisdom != "" {
		if blob, err := planner.ExportWisdom(); err == nil {
			if err := os.WriteFile(*wisdom, blob, 0o644); err != nil {
				log.Fatalf("writing wisdom: %v", err)
			}
		}
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
		kind, kerr := global.ParseSolverKind(*lsSolver)
		if kerr != nil {
			log.Fatalf("-ls-solver: %v", kerr)
		}
		pre, perr := global.ParsePrecondKind(*lsPrecond)
		if perr != nil {
			log.Fatalf("-ls-precond: %v", perr)
		}
		pl, err = global.SolveLeastSquares(res, global.LSOptions{
			Solver: kind, Precond: pre, Pool: opts.TransformPool(), Obs: rec,
		})
	default:
		log.Fatalf("unknown -solver %q (want mst or ls)", *solver)
	}
	if err != nil {
		log.Fatal(err)
	}
	w, h := pl.Bounds()
	fmt.Printf("phase 2: global positions in %v (%d repaired, %d dropped edges); composite %dx%d px\n",
		time.Since(t0).Round(time.Millisecond), pl.Repaired, pl.Dropped, w, h)
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
	// Degraded tiles render as blank background rather than failing the
	// composite read.
	src = stitch.MaskDegraded(src, res)
	t0 = time.Now()
	if *outPNG != "" {
		img, err := compose.ComposeObs(rec, pl, src, blend)
		if err != nil {
			log.Fatal(err)
		}
		if *stretch {
			if img, err = compose.Stretch(img, 0.5, 99.8); err != nil {
				log.Fatal(err)
			}
		}
		if err := compose.WritePNGFile(*outPNG, img); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("phase 3: wrote %s (%dx%d, %s blend) in %v\n", *outPNG, img.W, img.H, blend, time.Since(t0).Round(time.Millisecond))
	}
	if *outTIFF != "" {
		img, err := compose.ComposeObs(rec, pl, src, blend)
		if err != nil {
			log.Fatal(err)
		}
		if err := compose.WriteTIFFFile(*outTIFF, img); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("phase 3: wrote %s (%dx%d 16-bit TIFF)\n", *outTIFF, img.W, img.H)
	}
	if *compOut != "" {
		// Out-of-core path: band-by-band composition into a pyramid file,
		// with the band height sized from the governor budget. This is
		// the route for plates whose composite exceeds RAM — bit-identical
		// pixels, bounded working set.
		gov := memgov.New(*compBudg, 0)
		if rec != nil {
			gov.SetObs(rec)
		}
		t0 = time.Now()
		err := compose.ComposeShardedFile(pl, src, *compOut, compose.ShardedOpts{
			Blend: blend, Gov: gov, Rec: rec, Pool: opts.TransformPool(),
		})
		if err != nil {
			log.Fatal(err)
		}
		_, peak, _, _ := gov.Stats()
		fmt.Printf("phase 3: wrote %s (%dx%d pyramid, %s blend, peak %d bytes of %d budget) in %v\n",
			*compOut, w, h, blend, peak, *compBudg, time.Since(t0).Round(time.Millisecond))
	}
	if *highlight != "" {
		img, err := compose.HighlightGrid(pl, src, blend)
		if err != nil {
			log.Fatal(err)
		}
		if err := compose.WriteRGBAPNGFile(*highlight, img); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("phase 3: wrote %s (tile outlines)\n", *highlight)
	}
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
		blob, err := os.ReadFile(filepath.Join(dir, "truth.json"))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("reading dataset metadata: %w", err)
		}
		var meta struct {
			Rows     int     `json:"rows"`
			Cols     int     `json:"cols"`
			TileW    int     `json:"tile_w"`
			TileH    int     `json:"tile_h"`
			OverlapX float64 `json:"overlap_x"`
			OverlapY float64 `json:"overlap_y"`
			TruthX   []int   `json:"truth_x"`
			TruthY   []int   `json:"truth_y"`
		}
		if err := json.Unmarshal(blob, &meta); err != nil {
			return nil, nil, nil, err
		}
		g := tile.Grid{Rows: meta.Rows, Cols: meta.Cols, TileW: meta.TileW, TileH: meta.TileH,
			OverlapX: meta.OverlapX, OverlapY: meta.OverlapY}
		if err := g.Validate(); err != nil {
			return nil, nil, nil, fmt.Errorf("dataset metadata: %w", err)
		}
		return &stitch.DirSource{Dir: dir, GridSpec: g}, meta.TruthX, meta.TruthY, nil
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
