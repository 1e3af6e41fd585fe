package stitch

import "sync/atomic"

// Fiji models the ImageJ/Fiji stitching plugin's architecture as the
// external baseline: the same mathematical operators (the paper stresses
// this), multithreaded, but organized as a batch of independent per-pair
// jobs with no transform reuse — each pair recomputes both of its tiles'
// forward FFTs — and with tiles re-read from the source per pair. That
// architecture, not the math, is why the plugin took >3.6 h on the
// paper's workload; this implementation reproduces the same operation-
// count blowup (≈4nm vs 3nm transforms, plus redundant reads) at any
// scale. It has no retry and no degrade mode: the first error aborts.
type Fiji struct{}

// Name implements Stitcher.
func (Fiji) Name() string { return "fiji" }

// Run implements Stitcher.
func (f Fiji) Run(src Source, opts Options) (*Result, error) {
	// The baseline gets only the root span and result-level counters: the
	// golden/differential harness covers the five paper variants.
	r, err := newRun(src, opts, f.Name())
	if err != nil {
		return nil, err
	}
	pairs := r.g.Pairs()
	// Workers claim pairs by index, so one that fails simply stops
	// claiming; nobody is left blocked feeding it.
	var next atomic.Int64
	err = r.workers(r.opts.Threads, func(_ int, al aligner) error {
		for i := next.Add(1) - 1; i < int64(len(pairs)); i = next.Add(1) - 1 {
			p := pairs[i]
			// Re-read and re-transform both tiles: the no-reuse
			// architecture under study.
			bImg, err := src.ReadTile(p.Coord)
			if err != nil {
				return err
			}
			aImg, err := src.ReadTile(p.Neighbor())
			if err != nil {
				return err
			}
			if gov := r.opts.Governor; gov != nil {
				gov.Touch(2 * r.cache.bytes)
			}
			d, err := al.DisplaceTiles(aImg, bImg)
			if err != nil {
				return err
			}
			if err := r.settle(p, d, nil); err != nil {
				return err
			}
		}
		return nil
	})
	// Per-pair transforms are transient: two per pair, at most two per
	// in-flight pair resident.
	return r.publish(r.endWith(2*r.opts.Threads, 2*len(pairs), err))
}
