// Benchmark harness: one bench per table and figure of the paper's
// evaluation section (see DESIGN.md's per-experiment index), plus
// microbenchmarks of the core operators. Real workloads run at reduced
// scale (the paper's 42×59 grid of 1392×1040 tiles is hours of pure-Go
// FFT); the calibrated machine model carries the paper-scale numbers and
// is itself benchmarked here. Regenerate everything with:
//
//	go test -bench=. -benchmem
//	go run ./cmd/experiments -exp all
package hybridstitch_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"hybridstitch/internal/compose"
	"hybridstitch/internal/fft"
	"hybridstitch/internal/global"
	"hybridstitch/internal/gpu"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/machine"
	"hybridstitch/internal/memgov"
	"hybridstitch/internal/pciam"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
	"hybridstitch/internal/tileserve"
)

// benchSource caches one reduced dataset per configuration across
// benchmark iterations.
var benchSources = map[string]*stitch.MemorySource{}

func benchSource(b *testing.B, rows, cols, tw, th int) *stitch.MemorySource {
	b.Helper()
	key := fmt.Sprintf("%dx%d-%dx%d", rows, cols, tw, th)
	if s, ok := benchSources[key]; ok {
		return s
	}
	p := imagegen.DefaultParams(rows, cols, tw, th)
	ds, err := imagegen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	s := &stitch.MemorySource{DS: ds}
	benchSources[key] = s
	return s
}

func paperGrid() tile.Grid {
	return tile.Grid{Rows: 42, Cols: 59, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
}

// --- Table I ---

func BenchmarkTable1OpCensus(b *testing.B) {
	g := paperGrid()
	for i := 0; i < b.N; i++ {
		c := stitch.Census(g)
		if c.TotalForwardAndInverseFFTs() != 7333 {
			b.Fatal("census wrong")
		}
	}
}

// --- Table II: real implementations at reduced scale ---

func benchImpl(b *testing.B, impl stitch.Stitcher, gpus int) {
	src := benchSource(b, 6, 6, 96, 64)
	var devs []*gpu.Device
	for d := 0; d < gpus; d++ {
		dev := gpu.New(gpu.Config{Name: fmt.Sprintf("GPU%d", d)})
		defer dev.Close()
		devs = append(devs, dev)
	}
	opts := stitch.Options{Threads: 4, Devices: devs}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := impl.Run(src, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete() {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkTable2_Fiji(b *testing.B)         { benchImpl(b, &stitch.Fiji{}, 0) }
func BenchmarkTable2_SimpleCPU(b *testing.B)    { benchImpl(b, &stitch.SimpleCPU{}, 0) }
func BenchmarkTable2_MTCPU(b *testing.B)        { benchImpl(b, &stitch.MTCPU{}, 0) }
func BenchmarkTable2_PipelinedCPU(b *testing.B) { benchImpl(b, &stitch.PipelinedCPU{}, 0) }
func BenchmarkTable2_SimpleGPU(b *testing.B)    { benchImpl(b, &stitch.SimpleGPU{}, 1) }
func BenchmarkTable2_PipelinedGPU1(b *testing.B) {
	benchImpl(b, &stitch.PipelinedGPU{}, 1)
}
func BenchmarkTable2_PipelinedGPU2(b *testing.B) {
	benchImpl(b, &stitch.PipelinedGPU{}, 2)
}

// BenchmarkTable2Model predicts the full paper-scale Table II.
func BenchmarkTable2Model(b *testing.B) {
	g := paperGrid()
	for i := 0; i < b.N; i++ {
		for _, impl := range []string{"fiji", "simple-cpu", "mt-cpu", "pipelined-cpu", "simple-gpu", "pipelined-gpu"} {
			if _, err := machine.Predict(machine.RunSpec{Impl: impl, Grid: g, Threads: 16, GPUs: 2}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Fig 5: virtual-memory cliff ---

func BenchmarkFig5MemoryCliff(b *testing.B) {
	for _, tiles := range []int{832, 864} {
		b.Run(fmt.Sprintf("tiles-%d", tiles), func(b *testing.B) {
			g := tile.Grid{Rows: tiles / 32, Cols: 32, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
			for i := 0; i < b.N; i++ {
				sp, err := machine.FFTWorkloadSpeedup(g, machine.Fig5Host(), machine.PaperCosts(), 16)
				if err != nil {
					b.Fatal(err)
				}
				_ = sp
			}
		})
	}
}

// BenchmarkFig5GovernorReal measures the real paging-penalty mechanism.
func BenchmarkFig5GovernorReal(b *testing.B) {
	for _, over := range []bool{false, true} {
		name := "resident"
		if over {
			name = "paging"
		}
		b.Run(name, func(b *testing.B) {
			gov := memgov.New(1<<20, 20*time.Nanosecond)
			size := int64(512 << 10)
			if over {
				size = 4 << 20
			}
			a, err := gov.Alloc(size)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = a.Free() }()
			plan, err := fft.NewPlan2D(64, 64, fft.Forward, fft.Plan2DOpts{})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]complex128, 64*64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gov.Touch(64 * 64 * 16)
				if err := plan.Execute(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figs 7 & 9: profiler timelines ---

func benchProfile(b *testing.B, impl stitch.Stitcher) (util float64) {
	src := benchSource(b, 6, 6, 96, 64)
	for i := 0; i < b.N; i++ {
		dev := gpu.New(gpu.Config{Name: "GPU0", Profile: true, H2DBytesPerSec: 2e9})
		if _, err := impl.Run(src, stitch.Options{Threads: 4, Devices: []*gpu.Device{dev}}); err != nil {
			b.Fatal(err)
		}
		tl := dev.Timeline()
		spans := tl.Spans()
		util = tl.Utilization("kernel", spans[0].Start, spans[len(spans)-1].End)
		dev.Close()
	}
	return util
}

func BenchmarkFig7SimpleGPUProfile(b *testing.B) {
	u := benchProfile(b, &stitch.SimpleGPU{})
	b.ReportMetric(100*u, "kernel-util-%")
}

func BenchmarkFig9PipelinedGPUProfile(b *testing.B) {
	u := benchProfile(b, &stitch.PipelinedGPU{})
	b.ReportMetric(100*u, "kernel-util-%")
}

// --- Fig 10: CCF thread sweep (model, paper scale) ---

func BenchmarkFig10CCFThreads(b *testing.B) {
	g := paperGrid()
	for _, ccf := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("ccf-%d", ccf), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				var err error
				s, err = machine.Predict(machine.RunSpec{Impl: "pipelined-gpu", Grid: g, Threads: 16, CCFThreads: ccf, GPUs: 2})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(s, "model-sec")
		})
	}
}

// --- Fig 11: CPU strong scaling (model, paper scale) ---

func BenchmarkFig11CPUScaling(b *testing.B) {
	g := paperGrid()
	for _, th := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("threads-%d", th), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				var err error
				s, err = machine.Predict(machine.RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: th})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(s, "model-sec")
		})
	}
}

// BenchmarkFig11Real runs the real pipelined-CPU at reduced scale across
// thread counts (on a multi-core host the wall times shrink with
// threads; on a single-core host they document the overlap behavior).
func BenchmarkFig11Real(b *testing.B) {
	for _, th := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads-%d", th), func(b *testing.B) {
			src := benchSource(b, 6, 6, 96, 64)
			for i := 0; i < b.N; i++ {
				if _, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: th}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig 12: speedup surface (model) ---

func BenchmarkFig12SpeedupSurface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, tiles := range []int{128, 512, 1024} {
			g := tile.Grid{Rows: tiles / 16, Cols: 16, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
			for _, th := range []int{1, 8, 16} {
				if _, err := machine.Predict(machine.RunSpec{Impl: "pipelined-cpu", Grid: g, Threads: th}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// --- Figs 13 & 14: composition ---

func benchCompose(b *testing.B, highlight bool) {
	src := benchSource(b, 6, 6, 96, 64)
	res, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 4})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := global.Solve(res, global.Options{RepairOutliers: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := compose.Compose(pl, src, compose.BlendOverlay)
		if err != nil {
			b.Fatal(err)
		}
		if highlight {
			compose.HighlightGrid(img, pl)
		}
	}
}

func BenchmarkFig13Compose(b *testing.B)   { benchCompose(b, false) }
func BenchmarkFig14Highlight(b *testing.B) { benchCompose(b, true) }

// --- §IV: traversal orders ---

func BenchmarkTraversalOrders(b *testing.B) {
	// A wide grid (4×12) separates the orders: row traversal must keep
	// a whole 12-tile row resident, the diagonal orders only ~2× the
	// short dimension.
	for _, tr := range stitch.Traversals() {
		b.Run(tr.String(), func(b *testing.B) {
			src := benchSource(b, 4, 12, 96, 64)
			var peak int
			for i := 0; i < b.N; i++ {
				res, err := (&stitch.SimpleCPU{}).Run(src, stitch.Options{Traversal: tr})
				if err != nil {
					b.Fatal(err)
				}
				peak = res.PeakTransformsLive
			}
			b.ReportMetric(float64(peak), "peak-transforms")
		})
	}
}

// --- §VI.A ablations ---

func BenchmarkAblationR2C(b *testing.B) {
	const h, w = 96, 128
	b.Run("c2c", func(b *testing.B) {
		p, err := fft.NewPlan2D(h, w, fft.Forward, fft.Plan2DOpts{})
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]complex128, h*w)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Execute(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("r2c", func(b *testing.B) {
		p, err := fft.NewRealPlan2D(h, w)
		if err != nil {
			b.Fatal(err)
		}
		img := make([]float64, h*w)
		sh, sw := p.SpectrumDims()
		spec := make([]complex128, sh*sw)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Forward(spec, img); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationPadding(b *testing.B) {
	// 348 = 2²·3·29 (the tile width's factor structure) vs its next
	// fast length 350 = 2·5²·7.
	for _, n := range []int{348, fft.NextFastLength(348)} {
		b.Run(fmt.Sprintf("n-%d", n), func(b *testing.B) {
			p, err := fft.NewPlan(n, fft.Forward, fft.PlanOpts{})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]complex128, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Execute(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- core operator microbenchmarks ---

func BenchmarkFFT2DTile(b *testing.B) {
	for _, d := range [][2]int{{96, 128}, {192, 256}} {
		b.Run(fmt.Sprintf("%dx%d", d[0], d[1]), func(b *testing.B) {
			p, err := fft.NewPlan2D(d[0], d[1], fft.Forward, fft.Plan2DOpts{})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]complex128, d[0]*d[1])
			b.SetBytes(int64(len(buf) * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Execute(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPCIAMPair(b *testing.B) {
	src := benchSource(b, 2, 2, 128, 96)
	al, err := pciam.NewRealAligner(128, 96, pciam.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer al.Close()
	a := src.DS.Tile(tile.Coord{Row: 0, Col: 0})
	c := src.DS.Tile(tile.Coord{Row: 0, Col: 1})
	fa, err := al.Transform(a)
	if err != nil {
		b.Fatal(err)
	}
	fc, err := al.Transform(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := al.Displace(a, c, fa, fc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNCCSpectrum(b *testing.B) {
	n := 128 * 96
	fa := make([]complex128, n)
	fb := make([]complex128, n)
	dst := make([]complex128, n)
	for i := range fa {
		fa[i] = complex(float64(i%17), 1)
		fb[i] = complex(1, float64(i%13))
	}
	b.SetBytes(int64(n * 16))
	for i := 0; i < b.N; i++ {
		pciam.NCCSpectrum(dst, fa, fb)
	}
}

func BenchmarkCCFRegion(b *testing.B) {
	src := benchSource(b, 2, 2, 128, 96)
	a := src.DS.Tile(tile.Coord{Row: 0, Col: 0})
	c := src.DS.Tile(tile.Coord{Row: 0, Col: 1})
	for i := 0; i < b.N; i++ {
		tile.NCCRegion(a, 100, 0, c, 0, 0, 28, 96)
	}
}

// --- extension benchmarks ---

func BenchmarkSolvers(b *testing.B) {
	src := benchSource(b, 6, 6, 96, 64)
	res, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := global.Solve(res, global.Options{RepairOutliers: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("least-squares", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := global.SolveLeastSquares(res, global.LSOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// synthPlateResult fabricates a phase-1 result of arbitrary size without
// generating images: ground truth near the nominal stage positions with
// per-tile jitter, small per-pair measurement noise, and a sprinkle of
// confident outliers — enough structure to exercise the IRLS rounds at
// the paper's plate scale (59k tiles), where running actual phase 1
// would take hours.
// synthPlateResult keys every random draw to the tile coordinate (not a
// single sequential stream), so synthPlateResult(rows+1, cols, seed) is
// a strict superset of synthPlateResult(rows, cols, seed): the shared
// rows carry identical truth and identical pair measurements, and only
// the appended row is new. That makes the warm-resolve benchmark an
// honest model of streaming ingest instead of a full re-measurement.
func synthPlateResult(rows, cols int, seed int64) *stitch.Result {
	g := tile.Grid{Rows: rows, Cols: cols, TileW: 1392, TileH: 1040, OverlapX: 0.1, OverlapY: 0.1}
	n := g.NumTiles()
	nomW := g.NominalDisplacement(tile.West)
	nomN := g.NominalDisplacement(tile.North)
	coordRNG := func(row, col, salt int) *rand.Rand {
		return rand.New(rand.NewSource(seed + int64(row)*1_000_003 + int64(col)*4 + int64(salt)))
	}
	tx := make([]int, n)
	ty := make([]int, n)
	for i := 0; i < n; i++ {
		c := g.CoordOf(i)
		r := coordRNG(c.Row, c.Col, 0)
		tx[i] = c.Col*nomW.X + r.Intn(7) - 3
		ty[i] = c.Row*nomN.Y + r.Intn(7) - 3
	}
	res := &stitch.Result{Grid: g,
		West:  make([]tile.Displacement, n),
		North: make([]tile.Displacement, n)}
	for i := range res.West {
		res.West[i].Corr = nan()
		res.North[i].Corr = nan()
	}
	for _, p := range g.Pairs() {
		to := g.Index(p.Coord)
		from := g.Index(p.Neighbor())
		salt := 1
		if p.Dir == tile.North {
			salt = 2
		}
		rng := coordRNG(p.Coord.Row, p.Coord.Col, salt)
		d := tile.Displacement{X: tx[to] - tx[from], Y: ty[to] - ty[from],
			Corr: 0.7 + 0.25*rng.Float64()}
		switch r := rng.Float64(); {
		case r < 0.01: // confidently-wrong peak for IRLS to defuse
			d.X += 35
			d.Y -= 20
			d.Corr = 0.97
		default:
			d.X += rng.Intn(3) - 1
			d.Y += rng.Intn(3) - 1
		}
		if p.Dir == tile.West {
			res.West[to] = d
		} else {
			res.North[to] = d
		}
	}
	return res
}

func nan() float64 { return math.NaN() }

// maxPlacementDiff is the differential metric: largest per-tile
// |Δx|+|Δy| between two placements of the same grid.
func maxPlacementDiff(a, b *global.Placement) int {
	worst := 0
	for i := range a.X {
		dx := a.X[i] - b.X[i]
		dy := a.Y[i] - b.Y[i]
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if dx+dy > worst {
			worst = dx + dy
		}
	}
	return worst
}

// BenchmarkSolvers59k is the paper-scale phase-2 benchmark: the full
// 5-round IRLS solve on a 250×235 ≈ 59k-tile synthetic plate. The
// `pcg-twolevel` arm keeps its placement and the `differential`
// pseudo-arm asserts it lands every tile within 2 px of an untimed
// tight-tolerance reference.
func BenchmarkSolvers59k(b *testing.B) { benchSolvers(b, 250, 235) }

// BenchmarkSolvers2k is the same solve on a 45×45 = 2 025-tile plate,
// the 2k–8k-tile band where the coarse factor, not the CG iterations,
// once dominated the solve.
func BenchmarkSolvers2k(b *testing.B) { benchSolvers(b, 45, 45) }

func benchSolvers(b *testing.B, rows, cols int) {
	res := synthPlateResult(rows, cols, 1)
	var pl *global.Placement
	b.Run("pcg-twolevel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			if pl, err = global.SolveLeastSquares(res, global.LSOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("differential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pl == nil {
				b.Skip("pcg-twolevel not run")
			}
			ref, err := global.SolveLeastSquares(res, global.LSOptions{Tol: 1e-6})
			if err != nil {
				b.Fatal(err)
			}
			if d := maxPlacementDiff(ref, pl); d > 2 {
				b.Fatalf("solve differs from tight-tolerance reference by %d px (limit 2)", d)
			}
		}
	})
}

// BenchmarkWarmResolve59k measures the rolling re-solve: a cold solve of
// the full plate versus a Resolver warm re-solve after appending one
// freshly-scanned tile row (the stitchd streaming-ingest pattern). Setup
// cost (the cold solve establishing the warm state) is untimed.
//
// The differential tolerance is 4 px (|Δx|+|Δy|), looser than the 2 px
// solver matrix: the warm re-solve runs one incremental IRLS round from
// the previous fixed point, so its solution trails the full five-round
// cold trajectory by the tail of the per-round movements (~2 px/axis at
// this noise level; measured 3 px on this fixture).
func BenchmarkWarmResolve59k(b *testing.B) {
	resBase := synthPlateResult(250, 235, 1)
	resGrown := synthPlateResult(251, 235, 1)
	opts := global.LSOptions{}
	var cold, warm *global.Placement
	b.Run("cold-after-row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pl, err := global.SolveLeastSquares(resGrown, opts)
			if err != nil {
				b.Fatal(err)
			}
			cold = pl
		}
	})
	b.Run("warm-after-row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r := global.NewResolver(opts)
			if _, err := r.Solve(resBase); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			pl, err := r.Solve(resGrown)
			if err != nil {
				b.Fatal(err)
			}
			warm = pl
		}
	})
	if cold != nil && warm != nil {
		if d := maxPlacementDiff(cold, warm); d > 4 {
			b.Fatalf("warm re-solve differs from cold by %d px", d)
		}
	}
}

func BenchmarkRefinePass(b *testing.B) {
	src := benchSource(b, 4, 4, 128, 96)
	base, err := (&stitch.SimpleCPU{}).Run(src, stitch.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := &stitch.Result{Grid: base.Grid,
			West:  append([]tile.Displacement(nil), base.West...),
			North: append([]tile.Displacement(nil), base.North...)}
		// Corrupt two pairs, then repair.
		res.West[base.Grid.Index(tile.Coord{Row: 1, Col: 1})] = tile.Displacement{Corr: 0.1}
		res.North[base.Grid.Index(tile.Coord{Row: 2, Col: 2})] = tile.Displacement{Corr: 0.1}
		if _, err := global.RefineResult(res, src, global.RefineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViewerRender(b *testing.B) {
	src := benchSource(b, 4, 6, 96, 64)
	res, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 4})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := global.Solve(res, global.Options{RepairOutliers: true})
	if err != nil {
		b.Fatal(err)
	}
	v, err := compose.NewViewer(pl, src, 8)
	if err != nil {
		b.Fatal(err)
	}
	pw, ph := v.PlateBounds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := (i * 37) % (pw - 128)
		y := (i * 23) % (ph - 96)
		if _, err := v.Render(x, y, 128, 96); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeriesScan(b *testing.B) {
	p := imagegen.DefaultParams(4, 4, 96, 64)
	scans, err := imagegen.GenerateTimeSeries(imagegen.SeriesParams{Params: p, Scans: 2})
	if err != nil {
		b.Fatal(err)
	}
	sr := stitch.NewSeriesRunner(&stitch.PipelinedCPU{}, stitch.Options{Threads: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sr.RunScan(&stitch.MemorySource{DS: scans[i%2]}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSockets(b *testing.B) {
	for _, sockets := range []int{1, 2} {
		b.Run(fmt.Sprintf("sockets-%d", sockets), func(b *testing.B) {
			src := benchSource(b, 6, 6, 96, 64)
			for i := 0; i < b.N; i++ {
				if _, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 4, Sockets: sockets}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRealFFTPhase1 is the full phase-1 computation on an
// FFT-dominated workload (large tiles, small grid, single thread —
// transforms dwarf the read and CCF stages). BENCH_pr4.json and
// BENCH_pr5.json record it beside the paper's complex layout.
func BenchmarkRealFFTPhase1(b *testing.B) {
	benchPhase1(b, &stitch.SimpleCPU{}, benchSource(b, 3, 3, 192, 160), stitch.Options{})
}

// BenchmarkRealFFTPhase1SmallGrid is the pair-starved configuration the
// intra-transform split path targets: a 1×2 grid has one pair, so
// pair-level parallelism cannot use the machine no matter how many
// threads are configured, and the only remaining parallelism is inside
// each transform. Large tiles keep the workload FFT-dominated: 384×320
// is above the split floor, so with the shared pool's tokens free every
// transform call forks by the split rule — what users actually get.
func BenchmarkRealFFTPhase1SmallGrid(b *testing.B) {
	benchPhase1(b, &stitch.SimpleCPU{}, benchSource(b, 1, 2, 384, 320), stitch.Options{})
}

// BenchmarkAblationFFTVariants runs the pipeline on tiles carrying the
// paper's awkward factors (116×87 = 4·29 × 3·29), at the frame the size
// rule chooses (120×90), aligners built once outside the timed loop.
// BenchmarkTransformSizeStages times the c2c layout it was compared
// with, stage by stage.
func BenchmarkAblationFFTVariants(b *testing.B) {
	src := benchSource(b, 5, 5, 116, 87)
	opts := stitch.Options{Threads: 4}
	if _, err := (&stitch.PipelinedCPU{}).Run(src, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPhase1(b, &stitch.PipelinedCPU{}, src, opts)
}

// benchPhase1 times b.N phase-1 runs of impl over src, each complete.
func benchPhase1(b *testing.B, impl stitch.Stitcher, src stitch.Source, opts stitch.Options) {
	for i := 0; i < b.N; i++ {
		res, err := impl.Run(src, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete() {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkTransformSizeStages times the per-pair operators stage by
// stage — forward (staging + FFT), NCC + inverse, peak reduction, CCF —
// per (layout, transform size) at the paper's 1392×1040 tile size, the
// reporting shape of Alpay & Aydemir (PAPERS.md): exact, the size
// NextFastLength would pad to, and the size rule's 1440×1080, each built
// from fft plans at that frame, all serial. EXPERIMENTS.md "Transform
// size" cites it.
func BenchmarkTransformSizeStages(b *testing.B) {
	for _, r2c := range []bool{false, true} {
		for _, sz := range [][2]int{{1392, 1040}, {1400, 1050}, {1440, 1080}} {
			benchSizeStages(b, r2c, sz[0], sz[1])
		}
	}
}

// benchSizeStages runs the four stage benchmarks of one (layout, frame);
// its plans are released before the next configuration's are built.
func benchSizeStages(b *testing.B, r2c bool, pw, ph int) {
	const w, h = 1392, 1040
	src := benchSource(b, 1, 2, w, h)
	ta, tb := src.DS.Tile(tile.Coord{}), src.DS.Tile(tile.Coord{Col: 1})
	pix := make([]float64, pw*ph)
	var transform func(*tile.Gray16) []complex128
	var inverse func(fa, fb []complex128) // NCC + inverse into the surface
	var peak func() int
	layout := "complex"
	if r2c {
		layout = "real"
		plan, err := fft.NewRealPlan2DOpts(ph, pw, fft.Real2DOpts{Exec: fft.ExecSerial})
		if err != nil {
			b.Fatal(err)
		}
		corr, sw := make([]float64, pw*ph), pw/2+1
		transform = func(t *tile.Gray16) []complex128 {
			t.ToFloatFrame(pix, pw)
			out := make([]complex128, ph*sw)
			if err := plan.Forward(out, pix); err != nil {
				b.Fatal(err)
			}
			return out
		}
		inverse = func(fa, fb []complex128) {
			err := plan.InverseFill(corr, func(dst []complex128, r int) {
				pciam.NCCSpectrum(dst, fa[r*sw:(r+1)*sw], fb[r*sw:(r+1)*sw])
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		peak = func() int { i, _ := pciam.MaxAbsReal(corr); return i }
	} else {
		fwd, err := fft.NewPlan2D(ph, pw, fft.Forward, fft.Plan2DOpts{Exec: fft.ExecSerial})
		if err != nil {
			b.Fatal(err)
		}
		inv, err := fft.NewPlan2D(ph, pw, fft.Inverse, fft.Plan2DOpts{Exec: fft.ExecSerial})
		if err != nil {
			b.Fatal(err)
		}
		surf := make([]complex128, pw*ph)
		transform = func(t *tile.Gray16) []complex128 {
			t.ToFloatFrame(pix, pw)
			out := make([]complex128, pw*ph)
			for i, v := range pix {
				out[i] = complex(v, 0)
			}
			if err := fwd.Execute(out); err != nil {
				b.Fatal(err)
			}
			return out
		}
		inverse = func(fa, fb []complex128) {
			err := inv.ExecuteFill(surf, func(dst []complex128, r int) {
				pciam.NCCSpectrum(dst, fa[r*pw:(r+1)*pw], fb[r*pw:(r+1)*pw])
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		peak = func() int {
			bi, bm := 0, -1.0
			for i, v := range surf {
				if m := math.Max(math.Abs(real(v)), math.Abs(imag(v))); m > bm {
					bi, bm = i, m
				}
			}
			return bi
		}
	}
	fa, fb := transform(ta), transform(tb)
	inverse(fa, fb)
	idx := peak()
	name := fmt.Sprintf("%s/%dx%d/", layout, pw, ph)
	b.Run(name+"forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			transform(ta)
		}
	})
	b.Run(name+"ncc+inverse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inverse(fa, fb)
		}
	})
	b.Run(name+"peak", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = peak()
		}
	})
	b.Run(name+"ccf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = pciam.ResolveIn(ta, tb, idx%pw, idx/pw, pw, ph).X
		}
	})
}

// benchSink keeps a benchmarked result alive.
var benchSink int

// --- serving: out-of-core compose + tile server under load ---

// benchPyramid composes the bench plate into an in-memory pyramid once.
var benchPyramidData []byte

func benchPyramidBytes(b *testing.B) []byte {
	b.Helper()
	if benchPyramidData != nil {
		return benchPyramidData
	}
	src := benchSource(b, 6, 6, 96, 64)
	res, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 4})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := global.Solve(res, global.Options{RepairOutliers: true})
	if err != nil {
		b.Fatal(err)
	}
	var sb benchSeekBuffer
	err = compose.ComposeSharded(pl, src, &sb, compose.ShardedOpts{
		Blend: compose.BlendLinear, TileW: 64, TileH: 64, MinSide: 128,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchPyramidData = sb.buf
	return benchPyramidData
}

type benchSeekBuffer struct {
	buf []byte
	pos int64
}

func (s *benchSeekBuffer) Write(p []byte) (int, error) {
	if need := s.pos + int64(len(p)); need > int64(len(s.buf)) {
		grown := make([]byte, need)
		copy(grown, s.buf)
		s.buf = grown
	}
	copy(s.buf[s.pos:], p)
	s.pos += int64(len(p))
	return len(p), nil
}

func (s *benchSeekBuffer) Seek(off int64, whence int) (int64, error) {
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

// BenchmarkComposeSharded measures the out-of-core compositor against
// the same plate the in-memory Fig 13 bench uses: the cost of banding +
// pyramid reduction + deflate, in exchange for a bounded working set.
func BenchmarkComposeSharded(b *testing.B) {
	src := benchSource(b, 6, 6, 96, 64)
	res, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 4})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := global.Solve(res, global.Options{RepairOutliers: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb benchSeekBuffer
		err := compose.ComposeSharded(pl, src, &sb, compose.ShardedOpts{
			Blend: compose.BlendOverlay, TileW: 64, TileH: 64, MinSide: 128, BandRows: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTileServe is the load-generator for the serving story: 64+
// concurrent clients hammering the HTTP tile endpoint with a zipf-ish
// mix of hot (level-max overview) and cold (random level-0) tiles,
// reporting p95 request latency. The content-addressed cache means the
// hot set stays decoded; the p95 captures the cold-decode + PNG-encode
// tail.
func BenchmarkTileServe(b *testing.B) {
	data := benchPyramidBytes(b)
	pyr, err := tiffio.OpenPyramid(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	srv := tileserve.New(pyr, tileserve.Options{CacheBytes: 8 << 20})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}}

	lv0 := pyr.Level(0)
	const clients = 64
	b.SetParallelism((clients + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))

	var mu sync.Mutex
	var latencies []float64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(int64(42)))
		local := make([]float64, 0, 256)
		i := 0
		for pb.Next() {
			var url string
			if i%4 == 0 {
				// Hot: the coarsest level's single tile row (an overview
				// request every viewer session starts with).
				url = fmt.Sprintf("%s/tile/%d/0/0", ts.URL, pyr.NumLevels()-1)
			} else {
				url = fmt.Sprintf("%s/tile/0/%d/%d", ts.URL, rng.Intn(lv0.Across), rng.Intn(lv0.Down))
			}
			start := time.Now()
			resp, err := client.Get(url)
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d for %s", resp.StatusCode, url)
				return
			}
			local = append(local, float64(time.Since(start).Microseconds())/1000)
			i++
		}
		mu.Lock()
		latencies = append(latencies, local...)
		mu.Unlock()
	})
	b.StopTimer()
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		p95 := latencies[len(latencies)*95/100]
		b.ReportMetric(p95, "p95-ms")
		b.ReportMetric(float64(clients), "clients")
	}
	hits, misses, _, _ := srv.CacheStats()
	if hits+misses > 0 {
		b.ReportMetric(100*float64(hits)/float64(hits+misses), "cache-hit-%")
	}
}
