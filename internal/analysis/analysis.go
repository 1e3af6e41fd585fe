// Package analysis is a self-contained static-analysis framework plus
// the repo-specific analyzers the stitchlint tool runs. It mirrors the
// golang.org/x/tools/go/analysis shape — Analyzer, Pass, Diagnostic —
// but is built on the standard library only (go/ast, go/types, and
// `go list -export` for dependency export data), because this module
// vendors nothing. On top of the per-package passes it layers a
// lightweight control-flow graph and bitset dataflow engine (cfg.go)
// that the flow-sensitive analyzers share, and a whole-program hook
// (Analyzer.RunProgram) for analyses whose facts cross package
// boundaries.
//
// The analyzers encode the invariants the paper's pipelined-GPU design
// relies on but the compiler cannot check:
//
//   - pairguard:    every acquire (gpu/governor Alloc, obs StartSpan,
//     pciam Get*Aligner) reaches its paired release on every path —
//     early returns, error branches, and panics included — unless
//     ownership is transferred. Path-sensitive on the CFG; understands
//     defer and `if err != nil` refinement.
//   - blockinglock: no blocking calls while holding a sync.Mutex.
//   - lockorder:    the cross-package lock-ordering graph (keyed by
//     owning named type) is acyclic, and no lock-held call re-locks the
//     same mutex type (whole-program).
//   - obsnames:     every span/counter name passed to the obs layer is a
//     constant from the internal/obs names registry, so dashboards and
//     golden traces cannot drift from the code.
//   - hotpath:      functions marked //stitchlint:hotpath (the phase-1
//     steady-state pair loop) never call make; scratch comes from
//     constructor-sized arenas and plan-held buffers.
//
// Violations can be suppressed, one line at a time, with a trailing or
// preceding comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// where the reason is mandatory: a suppression without a rationale is
// ignored (and stitchlint reports it as malformed). A suppression
// naming an analyzer that no longer exists is reported too — dead
// suppressions otherwise hide the fact that nothing is being checked.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one named check. Exactly one of Run and RunProgram is set:
// Run sees one package at a time; RunProgram sees every loaded package
// at once with a shared FileSet, for analyses whose facts span package
// boundaries (lock-ordering graphs, cross-package call summaries).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
	// RunProgram inspects the whole loaded program at once.
	RunProgram func(prog *Program) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Program is a whole-program analyzer's view: every loaded package over
// one shared FileSet. Reporting is safe for concurrent use.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	mu    sync.Mutex
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos under the named analyzer.
func (p *Program) Reportf(pos token.Pos, analyzer, format string, args ...any) {
	p.ReportfAt(p.Fset.Position(pos), analyzer, format, args...)
}

// ReportfAt records a diagnostic at an already-resolved position.
func (p *Program) ReportfAt(pos token.Position, analyzer, format string, args ...any) {
	p.mu.Lock()
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: analyzer,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
	p.mu.Unlock()
}

// Analyzers returns the full stitchlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{PairGuard, BlockingLock, LockOrder, ObsNames, HotPath}
}

// ByName resolves a comma-separated analyzer selection ("" = all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return Analyzers(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies each analyzer to each package, filters suppressed
// diagnostics, and returns the survivors sorted by position. Per-package
// analyzers run in parallel across packages (bounded by GOMAXPROCS);
// whole-program analyzers run after, over all packages at once.
// Malformed suppression comments (no reason, or an analyzer name the
// suite no longer carries) are themselves diagnostics, attributed to the
// pseudo-analyzer "suppression".
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var perPkg, program []*Analyzer
	for _, a := range analyzers {
		if a.RunProgram != nil {
			program = append(program, a)
		} else {
			perPkg = append(perPkg, a)
		}
	}

	// Per-package passes fan out across a bounded worker pool; each
	// package accumulates into its own slice so no lock sits on the hot
	// reporting path.
	pkgDiags := make([][]Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, pkg *Package) {
			defer wg.Done()
			defer func() { <-sem }()
			for _, a := range perPkg {
				pass := &Pass{
					Analyzer:  a,
					Fset:      pkg.Fset,
					Files:     pkg.Files,
					Pkg:       pkg.Types,
					TypesInfo: pkg.TypesInfo,
					diags:     &pkgDiags[i],
				}
				if err := a.Run(pass); err != nil {
					errs[i] = fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.PkgPath, err)
					return
				}
			}
			pkgDiags[i] = append(pkgDiags[i], malformedSuppressions(pkg)...)
		}(i, pkg)
	}
	wg.Wait()
	var diags []Diagnostic
	for i := range pkgs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		diags = append(diags, pkgDiags[i]...)
	}

	if len(program) > 0 && len(pkgs) > 0 {
		prog := &Program{Fset: pkgs[0].Fset, Pkgs: pkgs, diags: &diags}
		for _, a := range program {
			if err := a.RunProgram(prog); err != nil {
				return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
			}
		}
	}

	byFile := map[string][]suppression{}
	for _, pkg := range pkgs {
		for _, s := range parseSuppressions(pkg) {
			byFile[s.file] = append(byFile[s.file], s)
		}
	}
	var kept []Diagnostic
	for _, d := range diags {
		if !suppressed(byFile[d.Pos.Filename], d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, nil
}

// suppression is one parsed //lint:allow comment.
type suppression struct {
	file     string
	line     int // line the comment sits on; it covers this line and the next
	analyzer string
	reason   string
}

const allowPrefix = "//lint:allow"

// parseSuppressions extracts every //lint:allow comment in the package.
func parseSuppressions(pkg *Package) []suppression {
	var out []suppression
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				s := suppression{file: pos.Filename, line: pos.Line}
				if len(fields) > 0 {
					s.analyzer = fields[0]
				}
				if len(fields) > 1 {
					s.reason = strings.Join(fields[1:], " ")
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// suppressed reports whether d is covered by a well-formed //lint:allow
// on the same line or the line immediately above.
func suppressed(sups []suppression, d Diagnostic) bool {
	for _, s := range sups {
		if s.reason == "" || s.analyzer != d.Analyzer {
			continue
		}
		if s.line == d.Pos.Line || s.line == d.Pos.Line-1 {
			return true
		}
	}
	return false
}

// malformedSuppressions flags //lint:allow comments missing the
// mandatory reason, so a suppression never silently fails to suppress —
// and comments naming an analyzer the suite no longer carries, so a
// retired analyzer's suppressions don't linger as false reassurance.
func malformedSuppressions(pkg *Package) []Diagnostic {
	live := map[string]bool{}
	for _, a := range Analyzers() {
		live[a.Name] = true
	}
	var out []Diagnostic
	for _, s := range parseSuppressions(pkg) {
		switch {
		case s.reason == "":
			out = append(out, Diagnostic{
				Analyzer: "suppression",
				Pos:      token.Position{Filename: s.file, Line: s.line, Column: 1},
				Message:  fmt.Sprintf("malformed %s comment: need %q", allowPrefix, allowPrefix+" <analyzer> <reason>"),
			})
		case !live[s.analyzer]:
			out = append(out, Diagnostic{
				Analyzer: "suppression",
				Pos:      token.Position{Filename: s.file, Line: s.line, Column: 1},
				Message:  fmt.Sprintf("%s references unknown analyzer %q — the suite has no such check, so this comment suppresses nothing", allowPrefix, s.analyzer),
			})
		}
	}
	return out
}
