package stitch

import "hybridstitch/internal/tile"

// SimpleCPU is the sequential reference implementation (paper §IV.A):
// one thread walking the pair order, transforms computed once and freed
// as early as the traversal order allows (chained diagonal by default).
type SimpleCPU struct{}

// Name implements Stitcher.
func (SimpleCPU) Name() string { return "simple-cpu" }

// Run implements Stitcher.
func (s SimpleCPU) Run(src Source, opts Options) (*Result, error) {
	r, err := newRun(src, opts, s.Name())
	if err != nil {
		return nil, err
	}
	return r.publish(r.end(r.walk([][]tile.Pair{r.opts.Traversal.PairOrder(r.g)})))
}
