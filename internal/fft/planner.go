package fft

// Mode names FFTW's planning rigor flags. The original system measured a
// 2x FFT improvement from patient over estimate planning for 1392×1040
// tiles, paid 4 min 20 s for it and amortized that through saved wisdom.
// Here every planning decision that could change output bits is a rule —
// a length's algorithm is chooseStrategy's, a tile's transform frame is
// TransformSize's — so the mode no longer changes any decision: every
// mode, and no planner at all, plans the same transforms.
type Mode int

const (
	// Estimate is FFTW's heuristic planning.
	Estimate Mode = iota
	// Measure is FFTW's timed planning.
	Measure
	// Patient is FFTW's more thoroughly timed planning.
	Patient
)

// Planner is the handle callers written against measured planning still
// pass around (stitch.Options.Planner, pciam.Options.Planner). It holds
// nothing: its plans are the package constructors', whatever its mode.
type Planner struct{}

// NewPlanner returns a planner; the mode changes no decision.
func NewPlanner(Mode) *Planner { return new(Planner) }

// RealPlan2DOpts is NewRealPlan2DOpts.
func (*Planner) RealPlan2DOpts(h, w int, opts Real2DOpts) (*RealPlan2D, error) {
	return NewRealPlan2DOpts(h, w, opts)
}
