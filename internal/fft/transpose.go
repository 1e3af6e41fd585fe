package fft

import "sync/atomic"

// This file implements the blocked (tiled) matrix transpose that backs
// the 2-D plans' column passes. Gathering each column through a stride-w
// walk touches one cache line per element; the blocked transpose instead
// moves transposeBlock×transposeBlock tiles that fit in L1, so the column
// FFTs run over contiguous row-major memory. The transform is
// bit-identical either way — the same values reach the same 1-D FFTs in
// the same order — which transpose_test.go pins against a row-then-column
// oracle that does the strided gather itself.

// transposeBlock is the square tile edge of the blocked transpose. At
// 16 complex128 elements a source tile plus its destination tile occupy
// 8 KiB — comfortably inside any L1 data cache — while keeping the loop
// overhead per element low. Tunable: raising it trades cache pressure
// for fewer block loops.
const transposeBlock = 16

// transposeBlocksCount counts transposed tiles process-wide, exported
// through TransposeBlocks for the stitch layer's fft.transpose.blocks
// counter (this package deliberately does not import obs).
var transposeBlocksCount atomic.Int64

// TransposeBlocks returns the process-wide count of transposed tiles.
func TransposeBlocks() int64 { return transposeBlocksCount.Load() }

// transposeRange transposes columns [c0, c1) of the rows×cols row-major
// matrix src into rows [c0, c1) of the cols×rows row-major matrix dst,
// tile by tile. Distinct column ranges touch disjoint regions of dst, so
// parallel workers can transpose slabs concurrently.
//
//stitchlint:hotpath
func transposeRange(dst, src []complex128, rows, cols, c0, c1 int) {
	var blocks int64
	for cb := c0; cb < c1; cb += transposeBlock {
		ce := min(cb+transposeBlock, c1)
		for rb := 0; rb < rows; rb += transposeBlock {
			re := min(rb+transposeBlock, rows)
			for c := cb; c < ce; c++ {
				drow := dst[c*rows : (c+1)*rows]
				for r := rb; r < re; r++ {
					drow[r] = src[r*cols+c]
				}
			}
			blocks++
		}
	}
	transposeBlocksCount.Add(blocks)
}
