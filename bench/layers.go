package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hybridstitch/internal/accuracy"
	"hybridstitch/internal/compose"
	"hybridstitch/internal/fft"
	"hybridstitch/internal/global"
	"hybridstitch/internal/gpu"
	"hybridstitch/internal/machine"
	"hybridstitch/internal/memgov"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/pciam"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
	"hybridstitch/internal/tileserve"
)

// This file is the traced run: one pass per stage with the benchmark's
// spans around every call into a layer and the program's own recorder
// switched on through the option fields it already has, plus short
// direct probes of single layers. None of it runs in an untraced run.

// probeBudget bounds each direct probe; probes take at least probeMin
// samples whatever they cost.
const (
	probeBudget = 700 * time.Millisecond
	probeMin    = 3
	probePairs  = 16
	probeTiles  = 64
	freshStarts = 20
	// replayed bounds the single-client replays of the traced round, which
	// cover half of it at most.
	replayed = 300
)

// newRecorder returns a recorder of the program's own for a traced pass,
// nil (recording off) for an untraced one.
func newRecorder(tr *tracer) *obs.Recorder {
	if tr == nil {
		return nil
	}
	return obs.New()
}

// tracedStitch makes the traced pass of the stitch stage and derives the
// stitch, tiffio, fft, pciam, compose, memgov and machine rows from it.
// baseline is the untraced pass's wall time.
func (r *run) tracedStitch(src stitch.Source, baseline float64) (*stitchRep, error) {
	rec := obs.New()
	defer rec.Close()
	r.pipe.tr, r.pipe.rec = r.tr, rec
	rep, err := r.pipe.stitchOnce(src, r.pyramid)
	r.pipe.tr, r.pipe.rec = nil, nil
	if err != nil {
		return nil, err
	}
	g, L := src.Grid(), r.layer
	phase1 := rep.phase1.Seconds()
	hist := func(name string) (count, sum float64) {
		n, s, _, _ := rec.Histogram(name).Stats()
		return float64(n), s
	}
	_, readBusy := hist(obs.HistReadSeconds)
	fftCount, fftBusy := hist(obs.HistFFTSeconds)
	dispCount, dispBusy := hist(obs.HistDispSeconds)

	L["obs.overhead_pct"] = 100 * (rep.wall.Seconds() - baseline) / baseline
	L["obs.spans_dropped"] = float64(rec.Dropped())

	L["stitch.phase1_s"] = phase1
	L["stitch.pairs_per_s"] = float64(g.NumPairs()) / phase1
	L["stitch.worker_util_pct"] = 100 * (readBusy + fftBusy + dispBusy) / (float64(r.pipe.threads) * phase1)
	L["stitch.peak_transforms_live"] = float64(rep.res.PeakTransformsLive)
	L["stitch.transforms_computed"] = float64(rep.res.TransformsComputed)
	for _, q := range rep.res.QueueStats {
		L["stitch.queue_max_depth"] = max(L["stitch.queue_max_depth"], float64(q.MaxDepth))
	}

	decodeBusy, decodes := r.tr.busy(rep.p1, "decode")
	L["tiffio.decode_busy_s"] = decodeBusy.Seconds()
	L["tiffio.decode_count"] = float64(decodes)
	L["tiffio.decode_mb_per_s"] = float64(decodes) * float64(2*g.TileW*g.TileH) / 1e6 / decodeBusy.Seconds()
	writeBusy, _ := r.tr.busy(rep.p3, "write")
	L["tiffio.pyramid_write_busy_s"] = writeBusy.Seconds()
	L["tiffio.pyramid_bytes"] = float64(rep.pyramidBytes)
	L["tiffio.open_pyramid_ms"] = rep.open.Seconds() * 1e3

	L["fft.busy_s"], L["fft.count"] = fftBusy, fftCount
	L["fft.autotune_split"] = float64(rec.CounterValue(obs.CounterFFTAutotuneSplit))
	L["fft.autotune_batched"] = float64(rec.CounterValue(obs.CounterFFTAutotuneBatched))
	L["pciam.displace_busy_s"], L["pciam.displace_count"] = dispBusy, dispCount
	within, pairs := accuracy.ScorePairs(r.in.truth, rep.res)
	L["pciam.pairs_within_1px_pct"] = 100 * float64(within) / float64(pairs)

	L["global.phase2_s"] = rep.phase2.Seconds()
	t := time.Now()
	if _, err := global.Solve(rep.res, global.Options{RepairOutliers: true}); err != nil {
		return nil, fmt.Errorf("spanning-tree solve: %w", err)
	}
	L["global.mst_s"] = time.Since(t).Seconds()

	phase3 := rep.phase3.Seconds()
	w, h := rep.pl.Bounds()
	sourceBusy, _ := r.tr.busy(rep.p3, "decode")
	L["compose.phase3_s"] = phase3
	L["compose.mpix_per_s"] = float64(w) * float64(h) / 1e6 / phase3
	L["compose.bands"] = float64(rec.CounterValue(obs.CounterComposeBands))
	L["compose.reads_per_tile"] = float64(rec.CounterValue(obs.CounterComposeBandTiles)) / float64(g.NumTiles())
	L["compose.source_read_busy_s"] = sourceBusy.Seconds()
	_, peak, faults, _ := rep.gov.Stats()
	L["memgov.peak_accounted_mb"] = float64(peak) / 1e6
	L["memgov.faults"] = float64(faults)

	// Deflate is inside the pyramid writer, where no wrapper reaches:
	// compose once more with compression off and take the difference.
	raw, err := r.composeNoDeflate(rep.pl, src)
	if err != nil {
		return nil, fmt.Errorf("uncompressed compose: %w", err)
	}
	L["tiffio.deflate_s"] = phase3 - raw.Seconds()
	L["compose.self_s"] = phase3 - sourceBusy.Seconds() - writeBusy.Seconds() - L["tiffio.deflate_s"]

	if err := r.implementationSweep(); err != nil {
		return nil, err
	}
	if err := r.probeTileSize(g, decodeBusy.Seconds()/float64(decodes), phase1); err != nil {
		return nil, err
	}
	return rep, nil
}

// composeNoDeflate is phase 3 of the traced pass again with NoDeflate,
// into a file of its own.
func (r *run) composeNoDeflate(pl *global.Placement, src stitch.Source) (time.Duration, error) {
	path := r.pyramid + ".raw"
	defer os.Remove(path)
	r.pipe.tr = r.tr
	defer func() { r.pipe.tr = nil }()
	root := r.tr.begin(-1, layerBench, "compose-nodeflate")
	defer r.tr.end(root)
	id := r.tr.begin(root, layerCompose, "phase3")
	defer r.tr.end(id)
	t := time.Now()
	_, err := r.pipe.composeFile(pl, src, path, id,
		compose.ShardedOpts{Blend: compose.BlendOverlay, Gov: memgov.New(composeBudget, 0), NoDeflate: true})
	return time.Since(t), err
}

// implementationSweep times all six phase-1 implementations on the
// plate's corner. It moves no end-to-end metric: it is the record of
// which implementations this host can tell apart.
func (r *run) implementationSweep() error {
	src := r.in.source(r.spec.corner())
	for _, impl := range stitch.Implementations() {
		opts := r.pipe.stitchOptions()
		opts.Degrade = impl.Name() != "fiji"
		if strings.HasSuffix(impl.Name(), "-gpu") {
			dev := gpu.New(gpu.Config{Name: "GPU0"})
			defer dev.Close()
			opts.Devices = []*gpu.Device{dev}
		}
		t := time.Now()
		res, err := impl.Run(src, opts)
		if err != nil {
			return fmt.Errorf("%s on the corner: %w", impl.Name(), err)
		}
		r.layer["stitch.impl_s."+impl.Name()] = time.Since(t).Seconds()
		r.ops.check(res.Complete(), "%s left pairs of the corner without a displacement", impl.Name())
	}
	return nil
}

// timeUntil calls f until the probe budget is used up or n calls are
// made, and returns the median call time in milliseconds.
func timeUntil(n int, f func(i int) error) (float64, error) {
	var ms []float64
	start := time.Now()
	for i := 0; i < n && (i < probeMin || time.Since(start) < probeBudget); i++ {
		t := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ms = append(ms, time.Since(t).Seconds()*1e3)
	}
	return median(ms), nil
}

// probeTileSize times single public functions of fft and pciam at the
// workload's tile size, then asks internal/machine what phase 1 should
// have taken with those costs.
func (r *run) probeTileSize(g tile.Grid, readS, phase1 float64) error {
	L := r.layer
	rng := rand.New(rand.NewSource(r.seed ^ 0x9e3779b9))
	src := r.in.source(g)

	plan, err := r.pipe.planner.RealPlan2DOpts(g.TileH, g.TileW, fft.Real2DOpts{Exec: fft.ExecSerial})
	if err != nil {
		return err
	}
	first, err := src.ReadTile(tile.Coord{})
	if err != nil {
		return err
	}
	pix := make([]float64, g.TileW*g.TileH)
	if err := first.ToFloat(pix); err != nil {
		return err
	}
	sh, sw := plan.SpectrumDims()
	spec := make([]complex128, sh*sw)
	fwdMs, err := timeUntil(probeTiles, func(int) error { return plan.Forward(spec, pix) })
	if err != nil {
		return err
	}
	n := float64(g.TileW * g.TileH)
	L["fft.forward_ms_per_tile"] = fwdMs
	// 5·N·log2 N is the textbook operation count of a complex FFT of N
	// points: computed, not counted.
	L["fft.gflops_computed"] = 5 * n * math.Log2(n) / (fwdMs / 1e3) / 1e9

	al, err := pciam.NewRealAligner(g.TileW, g.TileH, pciam.Options{Planner: r.pipe.planner})
	if err != nil {
		return err
	}
	defer al.Close()
	pairs := g.Pairs()
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	pairs = pairs[:min(len(pairs), probePairs)]
	var dispMs, ccfMs []float64
	start := time.Now()
	for i, p := range pairs {
		if i >= probeMin && time.Since(start) > 2*probeBudget {
			break
		}
		a, err := src.ReadTile(p.Neighbor())
		if err != nil {
			return err
		}
		b, err := src.ReadTile(p.Coord)
		if err != nil {
			return err
		}
		fa, fb, err := al.TransformPair(a, b)
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := al.Displace(a, b, fa, fb); err != nil {
			return err
		}
		dispMs = append(dispMs, time.Since(t).Seconds()*1e3)
		// The CCF step alone, at the peak the true displacement produces.
		d := r.in.truth.TrueDisplacement(p)
		px, py := ((d.X%g.TileW)+g.TileW)%g.TileW, ((d.Y%g.TileH)+g.TileH)%g.TileH
		t = time.Now()
		pciam.Resolve(a, b, px, py, pciam.Options{})
		ccfMs = append(ccfMs, time.Since(t).Seconds()*1e3)
	}
	L["pciam.displace_ms_per_pair"], L["pciam.ccf_ms_per_pair"] = median(dispMs), median(ccfMs)

	// internal/machine's cost model is stated at the paper's tile size and
	// scaled to the grid by For; undo that scaling on the measured costs.
	paper := machine.PaperCosts()
	scaled := paper.For(g)
	costs := paper
	costs.Read = readS * paper.Read / scaled.Read
	costs.FFTCPU = fwdMs / 1e3 * paper.FFTCPU / scaled.FFTCPU
	costs.CCF = median(ccfMs) / 1e3 * paper.CCF / scaled.CCF
	// The model charges a pair NCC + one transform + max + CCF; Displace
	// measured all four, so what the other three leave is the NCC cost.
	costs.NCCCPU = max(median(dispMs)-fwdMs-median(ccfMs), 0) / 1e3 * paper.NCCCPU / scaled.NCCCPU
	costs.MaxCPU = 0
	threads := r.pipe.threads
	predicted, err := machine.Predict(machine.RunSpec{
		Impl: "pipelined-cpu", Grid: g, Costs: costs, Threads: threads,
		Host: machine.HostConfig{PhysicalCores: threads, LogicalCores: threads, HTEfficiency: 1, MemContention: 1,
			RAMBytes: 1 << 40, UsableRAMBytes: 1 << 40, GPUs: 1, CPUSpeed: 1, GPUSpeed: 1},
	})
	if err != nil {
		return fmt.Errorf("machine.Predict: %w", err)
	}
	L["machine.predicted_phase1_s"] = predicted
	L["machine.model_err_pct"] = 100 * (predicted - phase1) / phase1
	return nil
}

// tracedSolve copies what the program's recorder said about the traced
// solve pass.
func (r *run) tracedSolve(rep *solveRep) {
	L := r.layer
	L["global.ls_rounds"] = float64(rep.rounds)
	L["global.cg_iterations_cold"] = float64(rep.cgCold)
	L["global.cg_iterations_warm"] = float64(rep.cgWarm)
	L["global.residual_px"] = rep.residualPx
}

// tracedServe derives the tileserve rows: cache behaviour of the traced
// round, then its request list replayed by a single client, over HTTP and
// through Server.Tile directly, each request classified hit or miss by
// the cache counters before and after it.
func (r *run) tracedServe(path string, pyr *tiffio.Pyramid, rd *round, lists [][]tileAddr) error {
	L := r.layer
	L["tileserve.cache_hit_pct"] = 100 * float64(rd.hits) / float64(rd.hits+rd.misses)
	L["tileserve.evictions"] = float64(rd.evictions)
	L["tileserve.png_kb_per_tile"] = float64(rd.bodyBytes) / float64(len(rd.latMs)) / 1e3

	var list []tileAddr
	for _, l := range lists {
		list = append(list, l...)
	}
	list = list[:min(len(list)/2, replayed)]
	replay := func(srv *tileserve.Server, fetch func(tileAddr) error) (hit, miss float64, err error) {
		var hits, misses []float64
		for _, a := range list {
			_, before, _, _ := srv.CacheStats()
			t := time.Now()
			if err := fetch(a); err != nil {
				return 0, 0, err
			}
			ms := time.Since(t).Seconds() * 1e3
			if _, after, _, _ := srv.CacheStats(); after > before {
				misses = append(misses, ms)
			} else {
				hits = append(hits, ms)
			}
		}
		return median(hits), median(misses), nil
	}
	web := startTileServer(pyr, 1, nil)
	httpHit, httpMiss, err := replay(web.srv, func(a tileAddr) error { _, err := web.get(a); return err })
	web.close()
	if err != nil {
		return fmt.Errorf("replaying the round over HTTP: %w", err)
	}
	direct := tileserve.New(pyr, tileserve.Options{CacheBytes: serveCache})
	callHit, callMiss, err := replay(direct, func(a tileAddr) error { _, err := direct.Tile(a.level, a.tx, a.ty); return err })
	if err != nil {
		return fmt.Errorf("replaying the round through Server.Tile: %w", err)
	}
	L["tileserve.hit_p50_ms"], L["tileserve.miss_p50_ms"] = httpHit, httpMiss
	L["tileserve.tile_call_hit_ms"], L["tileserve.tile_call_miss_ms"] = callHit, callMiss
	// On the hit path nothing is decoded, so what HTTP adds to the direct
	// call is the repack into image.Gray16, the PNG encoder and HTTP.
	L["tileserve.encode_ms"] = httpHit - callHit

	var starts []float64
	for i := 0; i < freshStarts; i++ {
		t := time.Now()
		pf, err := tiffio.OpenPyramidFile(path)
		if err != nil {
			return err
		}
		err = firstTile(pf.Pyramid)
		pf.Close()
		if err != nil {
			return err
		}
		starts = append(starts, time.Since(t).Seconds()*1e3)
	}
	L["tileserve.first_tile_ms"] = median(starts)

	rng := rand.New(rand.NewSource(r.seed ^ 0x7f4a7c15))
	lv := pyr.Level(0)
	inflateMs, err := timeUntil(probeTiles, func(int) error {
		_, err := pyr.ReadTileAt(0, rng.Intn(lv.Across), rng.Intn(lv.Down))
		return err
	})
	L["tiffio.inflate_ms_per_tile"] = inflateMs
	return err
}

// finishTrace closes the traced run: layer table, process numbers, the
// Chrome trace file, and the per-layer metrics in the report.
func (r *run) finishTrace() error {
	rows, wall := r.tr.layerTable()
	r.rep.Layers = map[string]float64{}
	for layer, d := range rows {
		r.rep.Layers[layer] = d.Seconds()
	}
	r.rep.LayerWall = wall.Seconds()
	L := r.layer
	L["bench.unattributed_s"] = rows[layerBench].Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	L["proc.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
	L["proc.peak_rss_mb"] = peakRSSMB()

	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	if err := r.tr.writeChromeTrace(filepath.Join(r.out, "trace-"+r.spec.Name+".json")); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	for _, d := range perLayer {
		v, ok := L[d.Name]
		if !ok {
			return fmt.Errorf("the traced run did not measure %s", d.Name)
		}
		r.rep.Metrics[d.Name] = value{v, d.Unit}
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 where there is none.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1e3
		}
	}
	return 0
}

// formatLayers renders the layer table of a traced report.
func formatLayers(rep *report) string {
	names := make([]string, 0, len(rep.Layers))
	for name := range rep.Layers {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "layer table (span wall time %.3f s; %s is what no span covers)\n", rep.LayerWall, layerBench)
	for _, name := range names {
		fmt.Fprintf(&b, "  %-10s %9.3f s %5.1f %%\n", name, rep.Layers[name], 100*rep.Layers[name]/rep.LayerWall)
	}
	return b.String()
}
