// Package lint is goldfishlint: a static-analysis suite that machine-checks
// the two repo conventions no stock tool observes — no discarded error in
// the report-producing and server packages, and no unreviewed change to
// package goldfish's exported surface. Both are per-package type passes.
// The analyzers mirror the golang.org/x/tools/go/analysis shape (Analyzer /
// Pass / Diagnostic, with analysistest-style `// want` testdata), but run on
// a self-contained stdlib-only driver: packages are type-checked from source
// with dependencies imported from `go list -export` data, so the suite needs
// no module downloads — a hard requirement for the offline CI image.
//
// Allocations on the round's hot paths are not a lint rule: they are
// measured, by the allocation budgets in internal/core.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's registry name, lowercase-kebab.
	Name string
	// Doc is a short one-line summary followed by a blank line and details.
	Doc string
	// Run reports this analyzer's diagnostics for one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package plus the Report sink.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Pos locates the violation.
	Pos token.Position
	// Message describes it.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Suite returns the goldfishlint analyzers in deterministic order.
func Suite() []*Analyzer {
	return []*Analyzer{
		ErrdropAnalyzer,
		APISurfaceAnalyzer,
	}
}

// Run applies the analyzers to the packages and returns every diagnostic,
// sorted by analyzer name then position so output is deterministic and CI
// diffs group by rule.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders diagnostics by analyzer name, then position, then
// message — the deterministic order both output modes (human, -json) share.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// The //goldfish: directives. Each analyzer's escape hatch is a distinct
// directive so one suppression can never silently widen to another rule.
const (
	// APIOKDirective on the package clause line opts a package out of the
	// apisurface golden comparison — a mid-refactor escape only.
	APIOKDirective = "//goldfish:apiok"
	// ErrOKDirective opts one statement out of errdrop — for discards whose
	// impossibility of failure is documented on the line.
	ErrOKDirective = "//goldfish:errok"
)

// directiveLines returns the set of lines the given //goldfish: directive
// covers in file: the directive's own line (trailing comment) and, for a
// directive standing alone on its line, the line below it.
func directiveLines(fset *token.FileSet, file *ast.File, directive string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !matchesDirective(c.Text, directive) {
				continue
			}
			line := fset.Position(c.Pos()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}

// matchesDirective reports whether comment text carries the directive,
// requiring a word boundary so //goldfish:errok never matches a
// hypothetical //goldfish:errokx.
func matchesDirective(text, directive string) bool {
	if !strings.HasPrefix(text, directive) {
		return false
	}
	rest := text[len(directive):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}
