package hybridstitch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// registeredFlags lists the names of the flags a command's source
// registers on the default flag set (flag.String, flag.Int, ...).
func registeredFlags(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING || strings.HasSuffix(sel.Sel.Name, "Var") {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		return true
	})
	return names
}

// TestREADMEDocumentsEveryFlag: every flag stitch and plateview register
// appears in README.md as a -name token (at a word start, in prose, a
// code span or a command line), so a new flag cannot ship undocumented.
func TestREADMEDocumentsEveryFlag(t *testing.T) {
	blob, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"stitch", "plateview"} {
		names := registeredFlags(t, "cmd/"+cmd+"/main.go")
		if len(names) < 10 {
			t.Fatalf("%s: found only %d registered flags %v; the source scan is broken", cmd, len(names), names)
		}
		for _, name := range names {
			token := regexp.MustCompile("(^|[\\s`(\\[|])-" + regexp.QuoteMeta(name) + "($|[\\s`=,.;:)\\]|])")
			if !token.Match(blob) {
				t.Errorf("%s -%s is not documented in README.md", cmd, name)
			}
		}
	}
}

// TestDESIGNTaxonomyListsEveryObsName: every span, counter, gauge and
// histogram name constant in internal/obs/names.go appears in DESIGN.md
// §10's span or metric taxonomy as a code span — the name itself or, for
// a dynamic family's prefix such as "gpu.op.", a code span it begins —
// so a new telemetry name cannot ship undocumented.
func TestDESIGNTaxonomyListsEveryObsName(t *testing.T) {
	blob, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(blob)
	start := strings.Index(doc, "### Span taxonomy")
	metrics := strings.Index(doc, "### Metric taxonomy")
	if start < 0 || metrics < start {
		t.Fatal("DESIGN.md §10 has no span and metric taxonomy headings")
	}
	end := metrics + 1 + strings.Index(doc[metrics+1:], "\n#")
	var spans []string
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(doc[start:end], -1) {
		spans = append(spans, m[1])
	}
	documented := func(name string) bool {
		for _, s := range spans {
			if s == name || strings.HasSuffix(name, ".") && strings.HasPrefix(s, name) {
				return true
			}
		}
		return false
	}

	f, err := parser.ParseFile(token.NewFileSet(), "internal/obs/names.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	kind := regexp.MustCompile(`^(Span|Counter|Gauge|Hist)[A-Z]`)
	checked := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if !kind.MatchString(id.Name) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("obs.%s is not a string literal", id.Name)
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				checked++
				if !documented(name) {
					t.Errorf("obs.%s = %q is not in DESIGN.md §10's span or metric taxonomy", id.Name, name)
				}
			}
		}
	}
	if checked < 40 {
		t.Fatalf("found only %d name constants; the source scan is broken", checked)
	}
}
