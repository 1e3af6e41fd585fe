package global

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hybridstitch/internal/fft"
	"hybridstitch/internal/obs"
)

// pinnedSolve is one pinned outcome of the 91×91 solve: the CG iteration
// count and an FNV-64a hash of the float bits of px then py.
type pinnedSolve struct {
	iters int64
	bits  uint64
}

// pinnedSolves is keyed by the helper count the solve reserves, which is
// min(pool size, GOMAXPROCS−1): chunk boundaries, and so the dot
// products' float sums, follow that count alone. The values were taken
// from the serial vector loops on amd64 at the default GOAMD64, where
// the compiler fuses no multiply-adds; any rewrite of the solve's loops
// must reproduce them.
var pinnedSolves = map[int]pinnedSolve{
	0: {iters: 244, bits: 0xb071d33826f90755},
	1: {iters: 244, bits: 0xe0941fbf44dbf1d3},
	2: {iters: 244, bits: 0xca9b8deee777f8d3},
	3: {iters: 244, bits: 0x6cb7efdce350069},
}

// hashFloats returns the FNV-64a hash of the bit patterns of xs then ys.
func hashFloats(xs, ys []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range [][]float64{xs, ys} {
		for _, f := range v {
			b := math.Float64bits(f)
			for k := range buf {
				buf[k] = byte(b >> (8 * k))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestSolvePinnedBits pins the CG iteration count and the float bits of
// the solution of a 91×91 plate (8281 rows: four chunks with three
// helpers, two with one) for private pools of 0, 1 and 3 helpers. A
// parallel rewrite of the solve's vector loops keeps every elementwise
// update and every chunked reduction order, so it must land on the same
// bits; a change here means the arithmetic moved.
func TestSolvePinnedBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned on amd64; other targets may fuse multiply-adds and move the low bits")
	}
	res, _, _ := noisyResult(rand.New(rand.NewSource(91)), 91, 91)
	for _, helpers := range []int{0, 1, 3} {
		reserved := min(helpers, runtime.GOMAXPROCS(0)-1)
		rec := obs.New()
		_, px, py, err := solveLS(res, LSOptions{Rounds: 2, Pool: fft.NewWorkerPool(helpers), Obs: rec}, nil, nil)
		rec.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := pinnedSolve{iters: rec.CounterValue(obs.CounterLSItersCG), bits: hashFloats(px, py)}
		if want := pinnedSolves[reserved]; got != want {
			t.Errorf("pool %d, %d reserved: got %d CG iterations, bits %#x; pinned %d, %#x",
				helpers, reserved, got.iters, got.bits, want.iters, want.bits)
		}
	}
}
