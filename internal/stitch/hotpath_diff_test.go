package stitch

import (
	"fmt"
	"math"
	"testing"

	"hybridstitch/internal/fft"
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

// oracleResult computes every displacement of src the long way round,
// from exported primitives only: each tile's forward transform, the
// normalized conjugate product as its own full pass, an unfused serial
// inverse through a plain fft plan, the peak, and the CCF resolution.
// None of what production fuses, splits or schedules is in it,
// which is what makes it the reference the six implementations are held
// to with ==.
func oracleResult(t *testing.T, src Source, variant FFTVariant) *Result {
	t.Helper()
	g := src.Grid()
	w, h := g.TileW, g.TileH
	planner := fft.NewPlanner(fft.Estimate)
	po := pciam.Options{Planner: planner, FFTExec: fft.ExecSerial}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	var transform func(*tile.Gray16) ([]complex128, error)
	// peak inverts the NCC spectrum and returns the surface's maximum and
	// the frame (pw × ph) its coordinates live in.
	var peak func(ncc []complex128) (px, py, pw, ph int)
	complexPeak := func(pw, ph int) func([]complex128) (int, int, int, int) {
		inv, err := planner.Plan2D(ph, pw, fft.Inverse, fft.Plan2DOpts{Exec: fft.ExecSerial})
		must(err)
		return func(ncc []complex128) (int, int, int, int) {
			must(inv.Execute(ncc))
			pk := pciam.TopPeaks(ncc, pw, ph, 1)[0]
			return pk.X, pk.Y, pw, ph
		}
	}
	switch variant {
	case VariantComplex:
		al, err := pciam.NewAligner(w, h, po)
		must(err)
		defer al.Close()
		transform, peak = al.Transform, complexPeak(w, h)
	case VariantPadded:
		al, err := pciam.NewPaddedAligner(w, h, po)
		must(err)
		defer al.Close()
		transform, peak = al.Transform, complexPeak(al.TransformDims())
	case VariantReal:
		al, err := pciam.NewRealAligner(w, h, po)
		must(err)
		defer al.Close()
		plan, err := planner.RealPlan2DOpts(h, w, fft.Real2DOpts{Exec: fft.ExecSerial})
		must(err)
		corr := make([]float64, w*h)
		transform = al.Transform
		peak = func(ncc []complex128) (int, int, int, int) {
			must(plan.Inverse(corr, ncc))
			i, _ := pciam.MaxAbsReal(corr)
			return i % w, i / w, w, h
		}
	}

	spectra := make(map[tile.Coord][]complex128)
	spectrum := func(c tile.Coord) (*tile.Gray16, []complex128) {
		img, err := src.ReadTile(c)
		must(err)
		if spectra[c] == nil {
			spectra[c], err = transform(img)
			must(err)
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
		px, py, pw, ph := peak(ncc)
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

// cpuImplementations are the four that run every FFT variant; the GPU
// pair supports complex and real only.
func cpuImplementations() []Stitcher {
	return []Stitcher{&Fiji{}, &SimpleCPU{}, &MTCPU{}, &PipelinedCPU{}}
}

// assertMatchOracle runs each implementation under opts and requires its
// displacements to equal the oracle's exactly.
func assertMatchOracle(t *testing.T, src Source, impls []Stitcher, opts Options, label string) {
	t.Helper()
	ref := oracleResult(t, src, opts.FFTVariant)
	for _, impl := range impls {
		opts.Threads = 3
		opts.Devices = testDevices(2)
		res := runStitcher(t, impl, src, opts)
		closeDevices(opts.Devices)
		assertBitIdenticalDisplacements(t, ref, res, "oracle", impl.Name()+"/"+label)
	}
}

// TestHotPathTogglesBitIdentical holds the hot path as production runs
// it — blocked transpose, fused NCC, autotuned execution on the shared
// pool — to the oracle: all six implementations, complex and real
// transforms. (The name predates the removal of the toggles that used to
// select the unfused and strided paths; their arithmetic now lives in
// the oracle.)
func TestHotPathTogglesBitIdentical(t *testing.T) {
	src := testDataset(t, 3, 3)
	for _, variant := range []FFTVariant{VariantComplex, VariantReal} {
		name := "complex"
		if variant == VariantReal {
			name = "real"
		}
		t.Run(name, func(t *testing.T) {
			assertMatchOracle(t, src, Implementations(), Options{FFTVariant: variant}, name)
		})
	}
}

// TestPaddedHotPathBitIdentical is the same wall for the CPU-only padded
// variant.
func TestPaddedHotPathBitIdentical(t *testing.T) {
	assertMatchOracle(t, testDataset(t, 3, 3), cpuImplementations(), Options{FFTVariant: VariantPadded}, "padded")
}

// TestFFTExecTogglesBitIdentical extends the wall along the execution-
// strategy axis: with the strategy pinned serial and pinned split over a
// private pool, every implementation still equals the oracle, across the
// complex, padded, and real variants. Split execution only repartitions
// the row/column loops — the per-element arithmetic is unchanged — so
// exact equality is the contract, not a tolerance.
func TestFFTExecTogglesBitIdentical(t *testing.T) {
	src := testDataset(t, 3, 3)
	pool := fft.NewWorkerPool(2)
	defer pool.Close()

	for _, variant := range []FFTVariant{VariantComplex, VariantPadded, VariantReal} {
		vname, impls := string(variant), Implementations()
		if variant == VariantComplex {
			vname = "complex"
		}
		if variant == VariantPadded {
			impls = cpuImplementations()
		}
		t.Run(vname, func(t *testing.T) {
			for _, exec := range []fft.ExecStrategy{fft.ExecSerial, fft.ExecSplit} {
				assertMatchOracle(t, src, impls, Options{FFTVariant: variant, FFTExec: exec, FFTPool: pool},
					fmt.Sprintf("%s/exec=%v", vname, exec))
			}
		})
	}
}
