package fft

import "fmt"

// Plan2D executes two-dimensional transforms of h×w complex images stored
// in row-major order. The transform is separable: length-w FFTs over each
// row followed by length-h FFTs over each column. The column pass runs
// through a blocked transpose (see transpose.go): the image is transposed
// into plan-held scratch, the column FFTs run over contiguous rows, and
// the result is transposed back. A Plan2D is NOT safe for concurrent use
// by multiple goroutines on the same call; use one Plan2D per goroutine.
// A single call may split its own passes across idle pool workers (the
// split rule, exec.go).
type Plan2D struct {
	w, h int
	dir  Direction
	norm bool

	px       *passExec
	rowPlans []*Plan // one per slot
	colPlans []*Plan
	rowSpan  int // split-leg minimum rows, precomputed

	// Pending row-pass operands, read by the bound body fnRow (see
	// passExec for why the body is bound once).
	opData []complex128
	opFill func(dst []complex128, r int)
	fnRow  func(slot, r int) error
}

// Plan2DOpts adjusts 2-D plan construction.
type Plan2DOpts struct {
	// NormalizeInverse folds the 1/(w·h) factor into inverse transforms.
	NormalizeInverse bool
	// Exec selects how a single Execute call uses the machine: the zero
	// value ExecAuto applies the split rule per call, ExecSerial pins
	// the zero-allocation single-goroutine path.
	Exec ExecStrategy
	// Pool supplies the helper-goroutine budget for split calls; nil
	// means SharedPool().
	Pool *WorkerPool
}

// NewPlan2D builds a plan for h-row × w-column transforms.
func NewPlan2D(h, w int, dir Direction, opts Plan2DOpts) (*Plan2D, error) {
	if h <= 0 || w <= 0 {
		return nil, fmt.Errorf("fft: invalid 2-D transform size %dx%d", h, w)
	}
	p := &Plan2D{w: w, h: h, dir: dir, norm: opts.NormalizeInverse,
		px:      newPassExec(opts.Exec, opts.Pool, w*h, h, w),
		rowSpan: spanAtLeast1(splitMinWork / w)}
	for i := 0; i < p.px.nslots; i++ {
		p.rowPlans = append(p.rowPlans, complexPlan(w, dir))
		p.colPlans = append(p.colPlans, complexPlan(h, dir))
	}
	p.fnRow = func(slot, r int) error {
		row := p.opData[r*p.w : (r+1)*p.w]
		if p.opFill != nil {
			p.opFill(row, r)
		}
		return p.rowPlans[slot].Execute(row)
	}
	return p, nil
}

// W returns the row length (width).
func (p *Plan2D) W() int { return p.w }

// H returns the column length (height).
func (p *Plan2D) H() int { return p.h }

// Dir reports the transform direction.
func (p *Plan2D) Dir() Direction { return p.dir }

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
	p.px.begin()
	p.opData, p.opFill = data, fill
	err := p.px.shard(p.h, p.rowSpan, p.fnRow)
	p.opData, p.opFill = nil, nil
	if err == nil {
		err = p.px.columns(data, p.colPlans)
	}
	if err != nil {
		return err
	}
	p.normalize(data)
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
