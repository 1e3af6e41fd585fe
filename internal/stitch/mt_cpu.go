package stitch

import "hybridstitch/internal/tile"

// MTCPU is the multithreaded SPMD implementation (paper §IV.A): the
// pair list is decomposed spatially across T threads, each running the
// same program on its partition. Transforms are computed once into the
// shared reference-counted cache, so boundary tiles are not recomputed
// by both partitions.
type MTCPU struct{}

// Name implements Stitcher.
func (MTCPU) Name() string { return "mt-cpu" }

// Run implements Stitcher.
func (m MTCPU) Run(src Source, opts Options) (*Result, error) {
	r, err := newRun(src, opts, m.Name())
	if err != nil {
		return nil, err
	}
	// Spatial decomposition: contiguous chunks of the traversal's pair
	// order, so each thread works a compact region and refcounts still
	// free memory early within a region.
	pairs := r.opts.Traversal.PairOrder(r.g)
	chunk := (len(pairs) + r.opts.Threads - 1) / r.opts.Threads
	var parts [][]tile.Pair
	for lo := 0; lo < len(pairs); lo += chunk {
		parts = append(parts, pairs[lo:min(lo+chunk, len(pairs))])
	}
	return r.publish(r.end(r.walk(parts)))
}
