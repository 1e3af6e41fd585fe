package fft

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Mode selects how much effort the planner spends choosing a strategy,
// mirroring FFTW's planning rigor flags. The original system measured a
// 2x FFT improvement from patient over estimate planning for 1392×1040
// tiles and a 4min20s planning cost that it amortized by saving the plan;
// the wisdom cache here plays that role.
type Mode int

const (
	// Estimate picks a strategy from size heuristics without timing.
	Estimate Mode = iota
	// Measure times each candidate strategy a few times and keeps the
	// fastest.
	Measure
	// Patient times each candidate more thoroughly (more repetitions).
	Patient
)

func (m Mode) String() string {
	switch m {
	case Estimate:
		return "estimate"
	case Measure:
		return "measure"
	case Patient:
		return "patient"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// measureReps returns how many timed executions each candidate gets.
func (m Mode) measureReps() int {
	switch m {
	case Measure:
		return 3
	case Patient:
		return 9
	default:
		return 0
	}
}

// wisdomKey identifies a planning decision.
type wisdomKey struct {
	N   int
	Dir Direction
}

// wisdomEntry records the chosen strategy and its measured cost.
type wisdomEntry struct {
	Strategy string        `json:"strategy"`
	Cost     time.Duration `json:"cost_ns"`
	Mode     string        `json:"mode"`
}

// Planner chooses and caches FFT strategies. It is safe for concurrent
// use; the plans it RETURNS are not (each caller gets a fresh plan built
// from cached wisdom, so only the first call per size pays measurement).
type Planner struct {
	mode Mode

	mu     sync.Mutex
	wisdom map[wisdomKey]wisdomEntry
	sizes  map[sizeKey]sizeEntry // transform-size decisions, see size.go

	// PlanningTime accumulates wall time spent measuring candidates,
	// reported by the planner-mode experiment.
	planningTime time.Duration
}

// NewPlanner creates a planner operating in the given mode.
func NewPlanner(mode Mode) *Planner {
	return &Planner{mode: mode, wisdom: make(map[wisdomKey]wisdomEntry), sizes: make(map[sizeKey]sizeEntry)}
}

// Mode reports the planner's rigor mode.
func (pl *Planner) Mode() Mode { return pl.mode }

// PlanningTime reports total wall time spent measuring candidates.
func (pl *Planner) PlanningTime() time.Duration {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.planningTime
}

// Plan returns a fresh execution plan for (n, dir), consulting or filling
// the wisdom cache.
func (pl *Planner) Plan(n int, dir Direction, opts PlanOpts) (*Plan, error) {
	if opts.ForceStrategy != "" {
		return NewPlan(n, dir, opts)
	}
	strat, err := pl.strategyFor(n, dir)
	if err != nil {
		return nil, err
	}
	opts.ForceStrategy = strat
	return NewPlan(n, dir, opts)
}

// Plan2D returns a fresh 2-D plan with both axis strategies chosen through
// the wisdom cache.
func (pl *Planner) Plan2D(h, w int, dir Direction, opts Plan2DOpts) (*Plan2D, error) {
	if opts.ForceStrategy != "" {
		return NewPlan2D(h, w, dir, opts)
	}
	// Warm wisdom for both axes so NewPlan2D's per-axis NewPlan calls are
	// consistent with the cache; then build with per-axis forced
	// strategies via a custom construction.
	sw, err := pl.strategyFor(w, dir)
	if err != nil {
		return nil, err
	}
	sh, err := pl.strategyFor(h, dir)
	if err != nil {
		return nil, err
	}
	return newPlan2D(h, w, dir, opts,
		func() (*Plan, error) { return NewPlan(w, dir, PlanOpts{ForceStrategy: sw}) },
		func() (*Plan, error) { return NewPlan(h, dir, PlanOpts{ForceStrategy: sh}) })
}

// wisdomFactory is the planFactory that routes a real plan's inner
// complex plans through the wisdom cache, so the r2c path pays
// measurement once per (size, direction) like the complex path.
func (pl *Planner) wisdomFactory(n int, dir Direction) (*Plan, error) {
	return pl.Plan(n, dir, PlanOpts{})
}

// RealPlan returns a fresh 1-D real-transform plan whose inner complex
// plans (the n/2-point packed FFT for even n, the full-size fallback for
// odd n) are chosen through the wisdom cache.
func (pl *Planner) RealPlan(n int) (*RealPlan, error) {
	return newRealPlan(n, pl.wisdomFactory)
}

// RealPlan2DOpts returns a fresh 2-D real-transform plan for h×w images
// with full control over the execution shape. Row r2c plans and column
// complex plans all consult the wisdom cache.
func (pl *Planner) RealPlan2DOpts(h, w int, opts Real2DOpts) (*RealPlan2D, error) {
	return newRealPlan2D(h, w, opts, pl.wisdomFactory)
}

// strategyFor returns the cached or newly decided strategy name for (n, dir).
func (pl *Planner) strategyFor(n int, dir Direction) (string, error) {
	if n <= 0 {
		return "", fmt.Errorf("fft: invalid transform length %d", n)
	}
	key := wisdomKey{N: n, Dir: dir}
	pl.mu.Lock()
	if e, ok := pl.wisdom[key]; ok {
		pl.mu.Unlock()
		return e.Strategy, nil
	}
	pl.mu.Unlock()

	entry := pl.decide(n, dir)

	pl.mu.Lock()
	pl.wisdom[key] = entry
	pl.planningTime += entry.Cost * time.Duration(len(candidateStrategies(n))*pl.mode.measureReps())
	pl.mu.Unlock()
	return entry.Strategy, nil
}

// candidateStrategies lists the algorithms worth trying for length n.
func candidateStrategies(n int) []string {
	switch {
	case n <= 4:
		return []string{"dft"}
	case isPow2(n):
		return []string{"radix2", "stockham"}
	case maxPrimeFactor(n) <= maxDirectPrime:
		if n <= 32 {
			return []string{"mixed", "bluestein", "dft"}
		}
		return []string{"mixed", "bluestein"}
	default:
		return []string{"bluestein"}
	}
}

// decide selects a strategy for (n, dir) according to the planner mode.
func (pl *Planner) decide(n int, dir Direction) wisdomEntry {
	cands := candidateStrategies(n)
	if pl.mode == Estimate || len(cands) == 1 {
		return wisdomEntry{Strategy: cands[0], Mode: pl.mode.String()}
	}
	reps := pl.mode.measureReps()
	rng := rand.New(rand.NewSource(int64(n)*7919 + int64(dir)))
	input := make([]complex128, n)
	for i := range input {
		input[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	work := make([]complex128, n)

	best := ""
	bestCost := time.Duration(1<<62 - 1)
	for _, s := range cands {
		p, err := NewPlan(n, dir, PlanOpts{ForceStrategy: s})
		if err != nil {
			continue
		}
		// One warm-up execution, then timed repetitions; keep the
		// minimum to reduce scheduling noise, as FFTW does.
		copy(work, input)
		_ = p.Execute(work)
		minRun := time.Duration(1<<62 - 1)
		for r := 0; r < reps; r++ {
			copy(work, input)
			t0 := time.Now()
			_ = p.Execute(work)
			if d := time.Since(t0); d < minRun {
				minRun = d
			}
		}
		if minRun < bestCost {
			bestCost = minRun
			best = s
		}
	}
	if best == "" {
		best = cands[0]
	}
	return wisdomEntry{Strategy: best, Cost: bestCost, Mode: pl.mode.String()}
}

// wisdomJSON is the serialized form of one wisdom record: a 1-D strategy
// decision (N > 0), or a transform-size decision (W > 0: a W×H tile in
// the complex or real layout transforms at PW×PH). Files written before
// size records existed hold only the first kind and import unchanged.
type wisdomJSON struct {
	N        int           `json:"n,omitempty"`
	Dir      int           `json:"dir,omitempty"`
	Strategy string        `json:"strategy,omitempty"`
	Cost     time.Duration `json:"cost_ns,omitempty"`
	Mode     string        `json:"mode,omitempty"`

	W    int  `json:"w,omitempty"`
	H    int  `json:"h,omitempty"`
	Real bool `json:"real,omitempty"`
	PW   int  `json:"pw,omitempty"`
	PH   int  `json:"ph,omitempty"`
}

// ExportWisdom serializes the accumulated planning decisions — strategies
// ordered by length, then transform sizes ordered by tile size — so they
// can be stored and re-imported: the analogue of fftw_export_wisdom.
func (pl *Planner) ExportWisdom() ([]byte, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	recs := make([]wisdomJSON, 0, len(pl.wisdom)+len(pl.sizes))
	for k, e := range pl.wisdom {
		recs = append(recs, wisdomJSON{N: k.N, Dir: int(k.Dir), Strategy: e.Strategy, Cost: e.Cost, Mode: e.Mode})
	}
	for k, e := range pl.sizes {
		recs = append(recs, wisdomJSON{W: k.W, H: k.H, Real: k.Real, PW: e.PW, PH: e.PH})
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		switch {
		case a.W != b.W:
			return a.W < b.W
		case a.H != b.H:
			return a.H < b.H
		case a.Real != b.Real:
			return b.Real
		case a.N != b.N:
			return a.N < b.N
		}
		return a.Dir < b.Dir
	})
	return json.MarshalIndent(recs, "", "  ")
}

// ImportWisdom merges previously exported wisdom into the cache. Existing
// entries are kept (local measurement beats imported hints). A size
// record that shrinks its tile is rejected: no transform can run at it.
func (pl *Planner) ImportWisdom(data []byte) error {
	var recs []wisdomJSON
	if err := json.Unmarshal(data, &recs); err != nil {
		return fmt.Errorf("fft: bad wisdom: %w", err)
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, r := range recs {
		if r.W > 0 {
			if r.PW < r.W || r.PH < r.H || r.H <= 0 {
				return fmt.Errorf("fft: bad wisdom: %dx%d tile cannot transform at %dx%d", r.W, r.H, r.PW, r.PH)
			}
			key := sizeKey{W: r.W, H: r.H, Real: r.Real}
			if _, exists := pl.sizes[key]; !exists {
				pl.sizes[key] = sizeEntry{PW: r.PW, PH: r.PH}
			}
			continue
		}
		key := wisdomKey{N: r.N, Dir: Direction(r.Dir)}
		if _, exists := pl.wisdom[key]; !exists {
			pl.wisdom[key] = wisdomEntry{Strategy: r.Strategy, Cost: r.Cost, Mode: r.Mode}
		}
	}
	return nil
}

// WisdomSize reports how many decisions — strategies and transform
// sizes — are cached.
func (pl *Planner) WisdomSize() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.wisdom) + len(pl.sizes)
}
