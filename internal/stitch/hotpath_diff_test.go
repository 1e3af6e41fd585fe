package stitch

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/pciam"
	"hybridstitch/internal/tile"
)

// assertBitIdenticalDisplacements is the strict (exact ==) form of
// assertSameDisplacements: the hot path promises bit-identical output,
// not merely output within tolerance.
func assertBitIdenticalDisplacements(t *testing.T, ref, got *Result, refName, gotName string) {
	t.Helper()
	for _, p := range ref.Grid.Pairs() {
		dr, _ := ref.PairDisplacement(p)
		dg, ok := got.PairDisplacement(p)
		if !ok {
			t.Fatalf("%s missing pair %v", gotName, p)
		}
		if dr.X != dg.X || dr.Y != dg.Y || dr.Corr != dg.Corr {
			t.Errorf("pair %v %s: %s=(%d,%d,%v) %s=(%d,%d,%v)",
				p.Coord, p.Dir, refName, dr.X, dr.Y, dr.Corr, gotName, dg.X, dg.Y, dg.Corr)
		}
	}
}

// paddedDataset is a plate whose tile size the size rule pads: 116×87 =
// 4·29 × 3·29 tiles transform at 120×90.
func paddedDataset(t testing.TB, rows, cols int) *MemorySource {
	t.Helper()
	ds, err := imagegen.Generate(imagegen.DefaultParams(rows, cols, 116, 87))
	if err != nil {
		t.Fatal(err)
	}
	return &MemorySource{DS: ds}
}

// oracleResult computes every displacement of src the long way round,
// from exported primitives only, at the explicit pw×ph frame: each
// tile's frame staging and forward transform through a plain serial fft
// plan, the normalized conjugate product as its own full pass, an
// unfused serial inverse, the peak, and the CCF resolution. None of what
// production fuses, splits, schedules or sizes is in it, which is what
// makes it the reference the six implementations are held to with ==.
// It runs in either spectrum layout: the complex one is the paper's
// baseline of full complex transforms, which production no longer has;
// the real one is production's half-spectrum arithmetic, unfused.
func oracleResult(t *testing.T, src Source, l layout, pw, ph int) *Result {
	t.Helper()
	g := src.Grid()
	w, h := g.TileW, g.TileH
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	pix := make([]float64, pw*ph)
	var transform func(*tile.Gray16) []complex128
	// peak inverts the NCC spectrum and returns the surface's maximum; its
	// coordinates live in the transform frame (pw × ph).
	var peak func(ncc []complex128) (px, py int)
	if !l.real {
		fwd, err := fft.NewPlan2D(ph, pw, fft.Forward, fft.Plan2DOpts{Exec: fft.ExecSerial})
		must(err)
		inv, err := fft.NewPlan2D(ph, pw, fft.Inverse, fft.Plan2DOpts{Exec: fft.ExecSerial})
		must(err)
		transform = func(img *tile.Gray16) []complex128 {
			img.ToFloatFrame(pix, pw)
			out := make([]complex128, pw*ph)
			for i, v := range pix {
				out[i] = complex(v, 0)
			}
			must(fwd.Execute(out))
			return out
		}
		peak = func(ncc []complex128) (int, int) {
			must(inv.Execute(ncc))
			i := maxAbsComplex(ncc)
			return i % pw, i / pw
		}
	} else {
		plan, err := fft.NewRealPlan2DOpts(ph, pw, fft.Real2DOpts{Exec: fft.ExecSerial})
		must(err)
		corr := make([]float64, pw*ph)
		transform = func(img *tile.Gray16) []complex128 {
			img.ToFloatFrame(pix, pw)
			out := make([]complex128, ph*(pw/2+1))
			must(plan.Forward(out, pix))
			return out
		}
		peak = func(ncc []complex128) (int, int) {
			must(plan.Inverse(corr, ncc))
			i, _ := pciam.MaxAbsReal(corr)
			return i % pw, i / pw
		}
	}

	spectra := make(map[tile.Coord][]complex128)
	spectrum := func(c tile.Coord) (*tile.Gray16, []complex128) {
		img, err := src.ReadTile(c)
		must(err)
		if spectra[c] == nil {
			spectra[c] = transform(img)
		}
		return img, spectra[c]
	}
	// candidates are the congruent readings of a peak coordinate in a
	// frame of n that fit a tile of size lim.
	candidates := func(p, n, lim int) []int {
		var out []int
		for _, d := range []int{p, p - n} {
			if d > -lim && d < lim && (p != 0 || d == 0) {
				out = append(out, d)
			}
		}
		return out
	}

	res := newResult(g)
	for _, p := range g.Pairs() {
		bImg, fb := spectrum(p.Coord)
		aImg, fa := spectrum(p.Neighbor())
		ncc := make([]complex128, len(fa))
		pciam.NCCSpectrum(ncc, fa, fb)
		px, py := peak(ncc)
		best := tile.Displacement{Corr: math.Inf(-1)}
		for _, dx := range candidates(px, pw, w) {
			for _, dy := range candidates(py, ph, h) {
				ax, ay, bx, by, ow, oh, ok := pciam.OverlapRegions(w, h, dx, dy)
				if !ok {
					continue
				}
				if c := tile.NCCRegion(aImg, ax, ay, bImg, bx, by, ow, oh); c > best.Corr {
					best = tile.Displacement{X: dx, Y: dy, Corr: c}
				}
			}
		}
		res.setPair(p, best)
	}
	return res
}

// maxAbsComplex is the complex oracle's max-reduction: the index of the
// largest |re| or |im|, the first on a tie.
func maxAbsComplex(data []complex128) int {
	bi, bm := 0, -1.0
	for i, v := range data {
		if m := math.Max(math.Abs(real(v)), math.Abs(imag(v))); m > bm {
			bi, bm = i, m
		}
	}
	return bi
}

// assertMatchOracle runs all six implementations under opts and requires
// each one's displacements to equal, exactly, the oracle's at the pw×ph
// frame in each of the layouts ls, and its result to report that frame.
func assertMatchOracle(t *testing.T, src Source, opts Options, label string, pw, ph int, ls ...layout) {
	t.Helper()
	refs := make([]*Result, len(ls))
	for i, l := range ls {
		refs[i] = oracleResult(t, src, l, pw, ph)
	}
	for _, impl := range Implementations() {
		opts.Threads = 3
		opts.Devices = testDevices(2)
		res := runStitcher(t, impl, src, opts)
		closeDevices(opts.Devices)
		for i, l := range ls {
			assertBitIdenticalDisplacements(t, refs[i], res, l.name+" oracle", impl.Name()+"/"+label)
		}
		if res.TransformW != pw || res.TransformH != ph {
			t.Errorf("%s/%s: result reports transforms at %dx%d, want %dx%d", impl.Name(), label, res.TransformW, res.TransformH, pw, ph)
		}
	}
}

// layout is a spectrum layout of the oracle, by subtest name.
type layout struct {
	name string
	real bool
}

var (
	complexOracle = layout{"complex", false}
	realOracle    = layout{"real", true}
	layouts       = []layout{complexOracle, realOracle}
)

// TestHotPathTogglesBitIdentical holds the hot path as production runs
// it — r2c half spectra, blocked transpose, fused NCC, autotuned
// execution on the shared pool — to the oracle in the complex and in the
// real layout: all six implementations, at the exact tile size. (The
// name predates the removal of the toggles that used to select the
// unfused and strided paths and the complex layout; their arithmetic now
// lives in the oracle.)
func TestHotPathTogglesBitIdentical(t *testing.T) {
	src := testDataset(t, 3, 3)
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			assertMatchOracle(t, src, Options{}, l.name, 128, 96, l)
		})
	}
}

// TestPaddedHotPathBitIdentical is the same wall on a plate the size
// rule pads: both oracle layouts, all six implementations — the GPU pair
// pads in host staging and reads its peak in the padded frame.
func TestPaddedHotPathBitIdentical(t *testing.T) {
	assertMatchOracle(t, paddedDataset(t, 3, 3), Options{}, "padded", 120, 90, layouts...)
}

// TestFFTExecTogglesBitIdentical extends the wall along the
// worker-budget axis the split rule reads: over private pools of 0, 1
// and NumCPU helpers, every implementation still equals the oracle,
// in both its layouts at the exact and at the padded size, and on a
// plate whose frame is large enough that a call with a free token
// splits (384×256: single-worker implementations fork there, pipelined
// ones hold the tokens for their pair workers). A split only
// repartitions the row/column loops — the per-element arithmetic is
// unchanged — so exact equality is the contract, not a tolerance.
func TestFFTExecTogglesBitIdentical(t *testing.T) {
	exact, padded := testDataset(t, 3, 3), paddedDataset(t, 3, 3)
	ds, err := imagegen.Generate(imagegen.DefaultParams(2, 2, 384, 256))
	if err != nil {
		t.Fatal(err)
	}
	large := &MemorySource{DS: ds}
	var pools []*fft.WorkerPool
	for _, n := range []int{0, 1, runtime.NumCPU()} {
		pool := fft.NewWorkerPool(n)
		defer pool.Close()
		pools = append(pools, pool)
	}

	wall := func(src Source, pw, ph int, ls ...layout) func(*testing.T) {
		return func(t *testing.T) {
			for _, pool := range pools {
				assertMatchOracle(t, src, Options{FFTPool: pool},
					fmt.Sprintf("%s/pool=%d", t.Name(), pool.Cap()), pw, ph, ls...)
			}
		}
	}
	t.Run("complex", wall(exact, 128, 96, complexOracle))
	t.Run("real", wall(exact, 128, 96, realOracle))
	t.Run("padded", wall(padded, 120, 90, layouts...))
	_, split0 := fft.AutotuneCounts()
	t.Run("split", wall(large, 384, 256, layouts...))
	if _, split1 := fft.AutotuneCounts(); split1 == split0 {
		t.Error("no transform of the 384×256 plate split: the wall never left the inline branch")
	}
}
