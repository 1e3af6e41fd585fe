package fft

import "fmt"

// Plan2D executes two-dimensional transforms of h×w complex images stored
// in row-major order. The transform is separable: length-w FFTs over each
// row followed by length-h FFTs over each column. The column pass runs
// through a blocked transpose (see transpose.go): the image is transposed
// into plan-held scratch, the column FFTs run over contiguous rows, and
// the result is transposed back. A Plan2D is NOT safe for concurrent use
// by multiple goroutines on the same call; use one Plan2D per goroutine,
// or the Exec option (which opportunistically splits a single call's
// passes across idle pool workers).
type Plan2D struct {
	w, h int
	dir  Direction
	norm bool

	exec   ExecStrategy // resolved: ExecSerial or ExecSplit
	pool   *WorkerPool
	nslots int // len(rowPlans); split legs use disjoint slot ranges

	rowPlans []*Plan // one per slot
	colPlans []*Plan
	tbuf     []complex128 // w×h transpose scratch, held for the plan's life

	// Split-pass spans, precomputed so the hot path does no division.
	rowSpan, colSpan, backSpan int
}

// maxSplitSlots caps how many per-slot plan/scratch sets a split-capable
// plan builds. Eight covers any machine this system targets without the
// plan footprint growing with GOMAXPROCS.
const maxSplitSlots = 8

// Plan2DOpts adjusts 2-D plan construction.
type Plan2DOpts struct {
	// NormalizeInverse folds the 1/(w·h) factor into inverse transforms.
	NormalizeInverse bool
	// Exec selects how a single Execute call uses the machine: the zero
	// value ExecAuto measures serial vs split at plan time (trivially
	// serial when Pool has no free token), ExecSerial pins the
	// zero-allocation single-goroutine path, ExecSplit pins the
	// recursive pool-fed split.
	Exec ExecStrategy
	// Pool supplies the helper-goroutine budget for the split path; nil
	// means SharedPool().
	Pool *WorkerPool
}

// NewPlan2D builds a plan for h-row × w-column transforms.
func NewPlan2D(h, w int, dir Direction, opts Plan2DOpts) (*Plan2D, error) {
	if h <= 0 || w <= 0 {
		return nil, fmt.Errorf("fft: invalid 2-D transform size %dx%d", h, w)
	}
	pool := opts.Pool
	if pool == nil {
		pool = SharedPool()
	}
	p := &Plan2D{w: w, h: h, dir: dir, norm: opts.NormalizeInverse,
		pool: pool, exec: opts.Exec, tbuf: make([]complex128, w*h)}
	p.rowSpan = spanAtLeast1(splitMinWork / w)
	p.colSpan = spanAtLeast1(splitMinWork / h)
	p.backSpan = p.rowSpan

	autoTrivial := p.exec == ExecAuto && (pool.Free() == 0 || w*h < autotuneFloor)
	if autoTrivial {
		p.exec = ExecSerial
	}
	p.nslots = splitSlots(p.exec, pool)
	for i := 0; i < p.nslots; i++ {
		p.rowPlans = append(p.rowPlans, complexPlan(w, dir))
		p.colPlans = append(p.colPlans, complexPlan(h, dir))
	}

	switch {
	case autoTrivial:
		countChoice(ExecSerial)
	case p.exec == ExecAuto:
		p.resolveAuto()
	}
	return p, nil
}

// splitSlots is how many per-slot plan/scratch sets a plan resolved to
// exec over pool builds: one for the serial path, otherwise one per
// goroutine a split can occupy, capped at maxSplitSlots.
func splitSlots(exec ExecStrategy, pool *WorkerPool) int {
	if exec == ExecSerial {
		return 1
	}
	return min(pool.Cap()+1, maxSplitSlots)
}

func spanAtLeast1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// resolveAuto times the serial and split shapes on scratch data and
// commits the plan to the faster (cached per size/direction/budget).
func (p *Plan2D) resolveAuto() {
	kind := "c2c-forward"
	if p.dir == Inverse {
		kind = "c2c-inverse"
	}
	key := autoKey{kind: kind, h: p.h, w: p.w, budget: p.pool.Cap()}

	var tmp []complex128
	mkTmp := func() {
		if tmp != nil {
			return
		}
		tmp = make([]complex128, p.w*p.h)
		for i := range tmp {
			tmp[i] = complex(float64(i%97)-48, float64(i%31)-15)
		}
	}
	p.exec = autotune(key,
		func() error { mkTmp(); return p.executeSerial(tmp, nil) },
		func() error { mkTmp(); return p.executeSplit(tmp, nil) })
}

// W returns the row length (width).
func (p *Plan2D) W() int { return p.w }

// H returns the column length (height).
func (p *Plan2D) H() int { return p.h }

// Dir reports the transform direction.
func (p *Plan2D) Dir() Direction { return p.dir }

// Exec reports the resolved execution strategy (never ExecAuto).
func (p *Plan2D) Exec() ExecStrategy { return p.exec }

// Execute transforms data (len h*w, row-major) in place.
func (p *Plan2D) Execute(data []complex128) error {
	return p.execute(data, nil)
}

// ExecuteFill transforms data in place like Execute, but produces the
// input on the fly: fill(dst, r) writes row r into dst (length w)
// immediately before that row's FFT runs, so the source values never
// make a separate full-size pass through memory. This is the fusion
// point for pciam's normalized conjugate multiply: the NCC row is still
// cache-hot when the row FFT consumes it. fill may be called
// concurrently from different workers for distinct rows.
//
//stitchlint:hotpath
func (p *Plan2D) ExecuteFill(data []complex128, fill func(dst []complex128, r int)) error {
	if fill == nil {
		return fmt.Errorf("fft: ExecuteFill requires a fill function")
	}
	return p.execute(data, fill)
}

//stitchlint:hotpath
func (p *Plan2D) execute(data []complex128, fill func([]complex128, int)) error {
	if len(data) != p.w*p.h {
		return fmt.Errorf("fft: plan is %dx%d (%d elements), input has %d", p.h, p.w, p.h*p.w, len(data))
	}
	if p.exec == ExecSplit {
		return p.executeSplit(data, fill)
	}
	return p.executeSerial(data, fill)
}

//stitchlint:hotpath
func (p *Plan2D) executeSerial(data []complex128, fill func([]complex128, int)) error {
	rp, cp := p.rowPlans[0], p.colPlans[0]
	for r := 0; r < p.h; r++ {
		row := data[r*p.w : (r+1)*p.w]
		if fill != nil {
			fill(row, r)
		}
		if err := rp.Execute(row); err != nil {
			return err
		}
	}
	if err := p.columnPass(data, 0, p.w, cp); err != nil {
		return err
	}
	transposeRange(data, p.tbuf, p.w, p.h, 0, p.h)
	p.normalize(data)
	return nil
}

// executeSplit runs the same three passes as executeSerial, but each pass
// recursively halves its index range across the plan's pool (gnark
// asyncFFT shape). Every leg owns a disjoint slot range, so per-slot
// plans and gather buffers need no locking, and the arithmetic per
// row/column is identical to the serial path — results are bit-identical.
func (p *Plan2D) executeSplit(data []complex128, fill func([]complex128, int)) error {
	err := splitRange(p.pool, 0, p.nslots, 0, p.h, p.rowSpan, func(slot, lo, hi int) error {
		rp := p.rowPlans[slot]
		for r := lo; r < hi; r++ {
			row := data[r*p.w : (r+1)*p.w]
			if fill != nil {
				fill(row, r)
			}
			if err := rp.Execute(row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = splitRange(p.pool, 0, p.nslots, 0, p.w, p.colSpan, func(slot, lo, hi int) error {
		return p.columnPass(data, lo, hi, p.colPlans[slot])
	})
	if err != nil {
		return err
	}
	err = splitRange(p.pool, 0, p.nslots, 0, p.h, p.backSpan, func(_, lo, hi int) error {
		transposeRange(data, p.tbuf, p.w, p.h, lo, hi)
		return nil
	})
	if err != nil {
		return err
	}
	p.normalize(data)
	return nil
}

// columnPass runs the length-h FFTs for columns [c0, c1), leaving the
// results in the transposed scratch p.tbuf; the caller transposes back
// once every column slab is done.
//
//stitchlint:hotpath
func (p *Plan2D) columnPass(data []complex128, c0, c1 int, cp *Plan) error {
	transposeRange(p.tbuf, data, p.h, p.w, c0, c1)
	for c := c0; c < c1; c++ {
		if err := cp.Execute(p.tbuf[c*p.h : (c+1)*p.h]); err != nil {
			return err
		}
	}
	return nil
}

//stitchlint:hotpath
func (p *Plan2D) normalize(data []complex128) {
	if !p.norm || p.dir != Inverse {
		return
	}
	s := complex(1/float64(p.w*p.h), 0)
	for i := range data {
		data[i] *= s
	}
}
