// Package fault is a deterministic, seedable fault-injection layer for
// the stitching system. Components expose named error points (Sites, a
// closed registry in sites.go: tiffio.read, gpu.alloc, gpu.kernel.fft,
// pciam.ncc, …) and an Injector decides, per hit, whether the operation
// fails. Rules fire on the Nth hit of a site (optionally for a run of
// consecutive hits), always, or with seeded probability, and can be
// restricted to operations whose detail string contains a substring
// (e.g. one tile's file name). The package also provides the bounded
// Retrier the stitching variants use to absorb transient failures before
// degrading a tile or pair.
//
// A nil *Injector is the production configuration: every site check is a
// single nil comparison, so injection points cost nothing on the hot
// path when no fault spec is installed.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
)

// InjectedError is the error surfaced at a firing site. It carries the
// site, the operation detail, and the hit ordinal so degraded-run
// reports can name the exact failure.
type InjectedError struct {
	Site   Site
	Detail string
	Hit    int64
	Msg    string
}

// Error implements error.
func (e *InjectedError) Error() string {
	msg := e.Msg
	if msg == "" {
		msg = "injected fault"
	}
	if e.Detail == "" {
		return fmt.Sprintf("fault: %s at %s (hit %d)", msg, e.Site, e.Hit)
	}
	return fmt.Sprintf("fault: %s at %s [%s] (hit %d)", msg, e.Site, e.Detail, e.Hit)
}

// IsInjected reports whether err chains to an InjectedError.
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}

// permanentError marks an error that retrying can never fix (corrupt
// input, invalid geometry). Retrier stops immediately on these.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Retrier will not retry it. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err was marked with Permanent anywhere in
// its chain.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// rule is one error point configuration, built by ParseSpec.
type rule struct {
	// site is the site the rule watches.
	site Site
	// match, if non-empty, restricts the rule to hits whose detail
	// string contains it (e.g. a tile file name).
	match string
	// nth fires the rule on the Nth matching hit (1-based).
	nth int64
	// count extends nth to a run of consecutive hits [nth, nth+count-1].
	// Zero means 1. Ignored when always or prob is set.
	count int64
	// always fires on every matching hit — a permanent fault.
	always bool
	// prob fires each matching hit independently with this probability,
	// drawn from the rule's seeded generator.
	prob float64
	// seed seeds the prob generator (defaults to a hash of the site name).
	seed int64
	// msg overrides the injected error message.
	msg string
}

// ruleState is a rule plus its runtime counters.
type ruleState struct {
	rule
	hits int64
	rng  *rand.Rand
}

// Injector evaluates rules at error points. Safe for concurrent use; a
// nil Injector never fires.
type Injector struct {
	mu    sync.Mutex
	rules map[Site][]*ruleState
	fired int64
}

// newInjector builds an injector from rules.
func newInjector(rules ...rule) *Injector {
	in := &Injector{rules: make(map[Site][]*ruleState)}
	for _, r := range rules {
		if r.count <= 0 {
			r.count = 1
		}
		st := &ruleState{rule: r}
		if r.prob > 0 {
			seed := r.seed
			if seed == 0 {
				seed = int64(len(r.site.name)) + 7919
				for _, c := range r.site.name {
					seed = seed*131 + int64(c)
				}
			}
			st.rng = rand.New(rand.NewSource(seed))
		}
		in.rules[r.site] = append(in.rules[r.site], st)
	}
	return in
}

// Hit evaluates site with an operation detail string. It returns an
// *InjectedError if a rule fires, nil otherwise. A nil receiver returns
// nil immediately, keeping uninstrumented runs free.
func (in *Injector) Hit(site Site, detail string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, st := range in.rules[site] {
		if st.match != "" && !strings.Contains(detail, st.match) {
			continue
		}
		st.hits++
		fire := false
		switch {
		case st.always:
			fire = true
		case st.prob > 0:
			fire = st.rng.Float64() < st.prob
		case st.nth > 0:
			fire = st.hits >= st.nth && st.hits < st.nth+st.count
		}
		if fire {
			in.fired++
			return &InjectedError{Site: site, Detail: detail, Hit: st.hits, Msg: st.msg}
		}
	}
	return nil
}

// Fired reports how many faults the injector has raised.
func (in *Injector) Fired() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// ParseSpec parses a fault specification string into an Injector. The
// grammar is semicolon-separated rules of the form
//
//	site[@match]:directive[,directive...]
//
// with directives
//
//	nth=N        fire on the Nth matching hit (1-based)
//	count=K      with nth, fire on K consecutive hits
//	always       fire on every matching hit (permanent fault)
//	prob=P       fire each hit with probability P
//	seed=S       seed for prob mode
//	err=MSG      error message override
//
// Examples:
//
//	tiffio.read:nth=5,count=2
//	tiffio.read@tile_r002_c003:always
//	gpu.kernel.fft:prob=0.01,seed=42
//
// Every site must be in the registry (Sites): a rule naming any other
// site could never fire, so it is a parse error. An empty spec yields a
// nil Injector (all sites free).
func ParseSpec(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []rule
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		colon := strings.Index(clause, ":")
		if colon <= 0 {
			return nil, fmt.Errorf("fault: rule %q missing site:directive separator", clause)
		}
		var r rule
		name := clause[:colon]
		if at := strings.Index(name, "@"); at >= 0 {
			name, r.match = name[:at], name[at+1:]
		}
		var err error
		if r.site, err = lookupSite(name); err != nil {
			return nil, fmt.Errorf("fault: rule %q: %v", clause, err)
		}
		for _, dir := range strings.Split(clause[colon+1:], ",") {
			dir = strings.TrimSpace(dir)
			if dir == "" {
				continue
			}
			key, val := dir, ""
			if eq := strings.Index(dir, "="); eq >= 0 {
				key, val = dir[:eq], dir[eq+1:]
			}
			switch key {
			case "nth":
				r.nth, err = strconv.ParseInt(val, 10, 64)
				if err == nil && r.nth < 1 {
					err = fmt.Errorf("nth must be >= 1")
				}
			case "count":
				r.count, err = strconv.ParseInt(val, 10, 64)
				if err == nil && r.count < 1 {
					err = fmt.Errorf("count must be >= 1")
				}
			case "always":
				r.always = true
			case "prob":
				r.prob, err = strconv.ParseFloat(val, 64)
				if err == nil && (r.prob <= 0 || r.prob > 1) {
					err = fmt.Errorf("prob must be in (0, 1]")
				}
			case "seed":
				r.seed, err = strconv.ParseInt(val, 10, 64)
			case "err":
				r.msg = val
			default:
				err = fmt.Errorf("unknown directive %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("fault: rule %q: %v", clause, err)
			}
		}
		if !r.always && r.nth == 0 && r.prob == 0 {
			return nil, fmt.Errorf("fault: rule %q needs one of nth, always, prob", clause)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	return newInjector(rules...), nil
}
