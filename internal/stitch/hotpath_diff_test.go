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

// paddedPlanner returns a planner holding wisdom records that put g's
// tiles in a frame 3/16 wider and 1/8 taller, for both layouts — how the
// size axis of the oracle wall forces a padded transform, there being no
// option for it (128×96 tiles transform at 152×108).
func paddedPlanner(t testing.TB, g tile.Grid) *fft.Planner {
	t.Helper()
	pl := fft.NewPlanner(fft.Estimate)
	w, h := g.TileW, g.TileH
	rec := fmt.Sprintf(`[{"w":%d,"h":%d,"pw":%d,"ph":%d},{"w":%[1]d,"h":%[2]d,"real":true,"pw":%[3]d,"ph":%[4]d}]`, w, h, w+3*w/16, h+h/8)
	if err := pl.ImportWisdom([]byte(rec)); err != nil {
		t.Fatal(err)
	}
	return pl
}

// oracleResult computes every displacement of src the long way round,
// from exported primitives only: each tile's forward transform at the
// size planner answers (nil: the tile size), the normalized conjugate
// product as its own full pass, an unfused serial inverse through a plain
// fft plan, the peak, and the CCF resolution. None of what production
// fuses, splits or schedules is in it, which is what makes it the
// reference the six implementations are held to with ==.
func oracleResult(t *testing.T, src Source, variant FFTVariant, planner *fft.Planner) *Result {
	t.Helper()
	g := src.Grid()
	w, h := g.TileW, g.TileH
	if planner == nil {
		planner = fft.NewPlanner(fft.Estimate)
	}
	po := pciam.Options{Planner: planner, FFTExec: fft.ExecSerial}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	var transform func(*tile.Gray16) ([]complex128, error)
	// peak inverts the NCC spectrum and returns the surface's maximum; its
	// coordinates live in the transform frame (pw × ph).
	var peak func(ncc []complex128) (px, py int)
	var pw, ph int
	switch variant {
	case VariantComplex:
		al, err := pciam.NewAligner(w, h, po)
		must(err)
		defer al.Close()
		pw, ph = al.TransformDims()
		inv, err := planner.Plan2D(ph, pw, fft.Inverse, fft.Plan2DOpts{Exec: fft.ExecSerial})
		must(err)
		transform = al.Transform
		peak = func(ncc []complex128) (int, int) {
			must(inv.Execute(ncc))
			pk := pciam.TopPeaks(ncc, pw, ph, 1)[0]
			return pk.X, pk.Y
		}
	case VariantReal:
		al, err := pciam.NewRealAligner(w, h, po)
		must(err)
		defer al.Close()
		pw, ph = al.TransformDims()
		plan, err := planner.RealPlan2DOpts(ph, pw, fft.Real2DOpts{Exec: fft.ExecSerial})
		must(err)
		corr := make([]float64, pw*ph)
		transform = al.Transform
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

// assertMatchOracle runs all six implementations under opts and requires
// each one's displacements to equal the oracle's exactly, and its result
// to report the transform size the oracle ran at.
func assertMatchOracle(t *testing.T, src Source, opts Options, label string) {
	t.Helper()
	ref := oracleResult(t, src, opts.FFTVariant, opts.Planner)
	wantW, wantH := src.Grid().TileW, src.Grid().TileH
	if opts.Planner != nil {
		wantW, wantH = opts.Planner.TransformSize(wantW, wantH, opts.FFTVariant == VariantReal)
	}
	for _, impl := range Implementations() {
		opts.Threads = 3
		opts.Devices = testDevices(2)
		res := runStitcher(t, impl, src, opts)
		closeDevices(opts.Devices)
		assertBitIdenticalDisplacements(t, ref, res, "oracle", impl.Name()+"/"+label)
		if res.TransformW != wantW || res.TransformH != wantH {
			t.Errorf("%s/%s: result reports transforms at %dx%d, want %dx%d", impl.Name(), label, res.TransformW, res.TransformH, wantW, wantH)
		}
	}
}

// layouts are the two spectrum layouts, by subtest name.
type layout struct {
	name    string
	variant FFTVariant
}

var layouts = []layout{{"complex", VariantComplex}, {"real", VariantReal}}

// TestHotPathTogglesBitIdentical holds the hot path as production runs
// it — blocked transpose, fused NCC, autotuned execution on the shared
// pool — to the oracle: all six implementations, complex and real
// transforms, at the exact tile size. (The name predates the removal of
// the toggles that used to select the unfused and strided paths; their
// arithmetic now lives in the oracle.)
func TestHotPathTogglesBitIdentical(t *testing.T) {
	src := testDataset(t, 3, 3)
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			assertMatchOracle(t, src, Options{FFTVariant: l.variant}, l.name)
		})
	}
}

// TestPaddedHotPathBitIdentical is the same wall at a padded transform
// size, forced by wisdom: both layouts, all six implementations — the
// GPU pair pads in host staging and reads its peak in the padded frame.
func TestPaddedHotPathBitIdentical(t *testing.T) {
	src := testDataset(t, 3, 3)
	for _, l := range layouts {
		assertMatchOracle(t, src, Options{FFTVariant: l.variant, Planner: paddedPlanner(t, src.Grid())}, "padded/"+l.name)
	}
}

// TestFFTExecTogglesBitIdentical extends the wall along the execution-
// strategy axis: with the strategy pinned serial and pinned split over a
// private pool, every implementation still equals the oracle, across
// both layouts at the exact and at the padded size. Split execution only
// repartitions the row/column loops — the per-element arithmetic is
// unchanged — so exact equality is the contract, not a tolerance.
func TestFFTExecTogglesBitIdentical(t *testing.T) {
	src := testDataset(t, 3, 3)
	pool := fft.NewWorkerPool(2)
	defer pool.Close()

	wall := func(planner *fft.Planner, ls ...layout) func(*testing.T) {
		return func(t *testing.T) {
			for _, l := range ls {
				for _, exec := range []fft.ExecStrategy{fft.ExecSerial, fft.ExecSplit} {
					assertMatchOracle(t, src, Options{FFTVariant: l.variant, Planner: planner, FFTExec: exec, FFTPool: pool},
						fmt.Sprintf("%s/%s/exec=%v", t.Name(), l.name, exec))
				}
			}
		}
	}
	t.Run("complex", wall(nil, layouts[0]))
	t.Run("real", wall(nil, layouts[1]))
	t.Run("padded", wall(paddedPlanner(t, src.Grid()), layouts...))
}
