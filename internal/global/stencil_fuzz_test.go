package global

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzStencilLaplacian drives newLSSystem with random rows×cols plates
// (1×n, n×1 and 1×1 included) carrying one to three edges per grid pair
// in either orientation and shuffled order, with some zero weights, and
// checks the stencil kernels against references: the normal equations
// bit for bit against the seed's CSR row sums, SpMV and residualMax
// against a dense Laplacian, SpMV at every chunk split against the
// whole-range product, and newLSSystem's grid-pair check against tile
// coordinates.
func FuzzStencilLaplacian(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(6))  // 1×7
	f.Add(int64(2), uint8(5), uint8(0))  // 6×1
	f.Add(int64(3), uint8(0), uint8(0))  // 1×1
	f.Add(int64(4), uint8(4), uint8(5))  // 5×6
	f.Add(int64(5), uint8(11), uint8(8)) // 12×9
	f.Fuzz(func(t *testing.T, seed int64, rowsB, colsB uint8) {
		rows, cols := int(rowsB)%12+1, int(colsB)%12+1
		n := rows * cols
		rng := rand.New(rand.NewSource(seed))
		var edges []lsEdge
		addPair := func(a, b int) {
			for k := rng.Intn(3); k >= 0; k-- {
				from, to := a, b
				if rng.Intn(2) == 0 {
					from, to = to, from
				}
				edges = append(edges, lsEdge{from: from, to: to,
					dx: rng.Intn(201) - 100, dy: rng.Intn(201) - 100,
					w: 1e-3 + rng.Float64()})
			}
		}
		for i := 0; i < n; i++ {
			if i%cols > 0 {
				addPair(i-1, i)
			}
			if i >= cols {
				addPair(i-cols, i)
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

		// The grid-pair check, against row/column coordinates.
		neighbours := func(a, b int) bool {
			ra, ca, rb, cb := a/cols, a%cols, b/cols, b%cols
			return (ra == rb && (ca-cb == 1 || cb-ca == 1)) || (ca == cb && (ra-rb == 1 || rb-ra == 1))
		}
		for k := 0; k < 4; k++ {
			a, b := rng.Intn(n+1), rng.Intn(n)
			bad := append(append([]lsEdge(nil), edges...), lsEdge{from: a, to: b, w: 1})
			_, err := newLSSystem(rows, cols, bad)
			if want := a < n && neighbours(a, b); (err == nil) != want {
				t.Fatalf("%dx%d: edge %d–%d accepted=%v, want %v", rows, cols, a, b, err == nil, want)
			}
		}

		sys, err := newLSSystem(rows, cols, edges)
		if err != nil {
			t.Fatal(err)
		}
		// Weights as IRLS leaves them, some zero; the pinned tile 0 is
		// an endpoint of up to two pairs like any other tile.
		for i := range sys.robustW {
			if rng.Intn(5) > 0 {
				sys.robustW[i] = rng.Float64()
			} else {
				sys.robustW[i] = 0
			}
		}
		diag := make([]float64, n)
		bx := make([]float64, n)
		by := make([]float64, n)
		sys.assemble(diag, bx, by)

		// Normal equations: the seed's CSR row sums, bit for bit.
		csr := newCSRLaplacian(n, edges)
		for i := 0; i < n; i++ {
			var sw, sx, sy float64
			for k := csr.rowPtr[i]; k < csr.rowPtr[i+1]; k++ {
				w := sys.robustW[csr.edgeRef[k]]
				sw += w
				sx += w * csr.ex[k]
				sy += w * csr.ey[k]
			}
			if diag[i] != sw || bx[i] != sx || by[i] != sy {
				t.Fatalf("row %d: normal equations (%v, %v, %v), CSR rows say (%v, %v, %v)",
					i, diag[i], bx[i], by[i], sw, sx, sy)
			}
		}

		// SpMV and residualMax against the dense Laplacian.
		dense := make([]float64, n*n)
		for i, e := range edges {
			w := sys.robustW[i]
			dense[e.from*n+e.from] += w
			dense[e.to*n+e.to] += w
			dense[e.from*n+e.to] -= w
			dense[e.to*n+e.from] -= w
		}
		mul := func(x []float64, i int) float64 {
			var s float64
			for j := 0; j < n; j++ {
				s += dense[i*n+j] * x[j]
			}
			return s
		}
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 50
			y[i] = rng.NormFloat64() * 50
		}
		const tol = 1e-9
		dst := make([]float64, n)
		sys.spmvRange(dst, x, diag, 0, n)
		var wantRes float64
		for i := 0; i < n; i++ {
			want := mul(x, i)
			if math.Abs(dst[i]-want) > tol*(1+math.Abs(want)+diag[i]*100) {
				t.Fatalf("spmv row %d = %g, dense says %g", i, dst[i], want)
			}
			if i > 0 {
				wantRes = max(wantRes, math.Abs(bx[i]-want), math.Abs(by[i]-mul(y, i)))
			}
		}
		if got := sys.residualMax(x, y, diag, bx, by); math.Abs(got-wantRes) > tol*(1+wantRes) {
			t.Fatalf("residualMax = %g, dense says %g", got, wantRes)
		}

		// Chunked SpMV, as the parallel fan-out runs it, is the same
		// product bit for bit at every split.
		split := make([]float64, n)
		for k := 0; k <= n; k++ {
			sys.spmvRange(split, x, diag, 0, k)
			sys.spmvRange(split, x, diag, k, n)
			for i := range split {
				if split[i] != dst[i] {
					t.Fatalf("split at %d: row %d = %v, whole range says %v", k, i, split[i], dst[i])
				}
			}
		}
	})
}
