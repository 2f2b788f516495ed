package lint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"goldfish/internal/lint"
	"goldfish/internal/lint/linttest"
)

// fixCase is one -fix corpus: a testdata/fix/<name> package with a committed
// dry-run diff golden (corpus.diff) and a post-apply golden
// (corpus.go.golden). The goldens use non-.go extensions so go tooling and
// gofmt never treat them as sources.
type fixCase struct {
	name       string
	importPath string
	analyzer   *lint.Analyzer
}

var fixCases = []fixCase{
	{"errdrop", "goldfish/internal/scenario/linttestdata/fixcorpus", lint.ErrdropAnalyzer},
	{"registry", "goldfish/internal/lint/linttestdata/fixregistry", lint.RegistryAnalyzer},
	{"goleak", "goldfish/internal/lint/linttestdata/fixgoleak", lint.GoleakAnalyzer},
}

// planFor loads the corpus package from dir and plans its fixes.
func planFor(t *testing.T, dir string, tc fixCase) *lint.FixPlan {
	t.Helper()
	pkg, err := linttest.Loader(t).LoadDir(dir, tc.importPath)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{tc.analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatalf("corpus %s produced no diagnostics", dir)
	}
	plan := lint.PlanFixes(diags)
	if plan.Empty() {
		t.Fatalf("corpus %s produced no applicable fixes", dir)
	}
	return plan
}

// TestFixDryRunGoldens pins the -fix -dry-run rendering byte-exactly: the
// plan's Diff over each corpus must equal the committed corpus.diff.
// Regenerate with `go test ./internal/lint -run TestFixDryRunGoldens -update`.
func TestFixDryRunGoldens(t *testing.T) {
	for _, tc := range fixCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "fix", tc.name)
			plan := planFor(t, dir, tc)
			got, err := plan.Diff()
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join(dir, "corpus.diff")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("dry-run diff differs from %s (run with -update to regenerate):\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}

// TestFixApply copies each corpus to a temp dir, applies the plan, and pins
// the rewritten file against corpus.go.golden byte-exactly. The fixed source
// must also re-lint clean: a -fix repair resolves its diagnostic rather than
// moving it.
func TestFixApply(t *testing.T) {
	for _, tc := range fixCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "fix", tc.name)
			src, err := os.ReadFile(filepath.Join(dir, "corpus.go"))
			if err != nil {
				t.Fatal(err)
			}
			tmp := t.TempDir()
			if err := os.WriteFile(filepath.Join(tmp, "corpus.go"), src, 0o644); err != nil {
				t.Fatal(err)
			}
			plan := planFor(t, tmp, tc)
			changed, err := plan.Apply()
			if err != nil {
				t.Fatal(err)
			}
			if changed != 1 {
				t.Errorf("Apply changed %d files, want 1", changed)
			}
			got, err := os.ReadFile(filepath.Join(tmp, "corpus.go"))
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join(dir, "corpus.go.golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("applied source differs from %s (run with -update to regenerate):\ngot:\n%s\nwant:\n%s", golden, got, want)
			}

			// The repair must resolve the diagnostic.
			fixedPkg, err := linttest.Loader(t).LoadDir(tmp, tc.importPath+"_fixed")
			if err != nil {
				t.Fatal(err)
			}
			diags, err := lint.Run([]*lint.Package{fixedPkg}, []*lint.Analyzer{tc.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				t.Errorf("fixed corpus still diagnosed: %s", d)
			}
		})
	}
}

// TestFixPlanOverlap pins the overlap policy: two fixes editing the same
// range are never half-applied — the first (diagnostic-order) wins whole and
// the loser is counted in Dropped.
func TestFixPlanOverlap(t *testing.T) {
	diags := []lint.Diagnostic{
		{
			Analyzer: "a",
			Fixes: []lint.SuggestedFix{{
				Message: "first",
				Edits:   []lint.TextEdit{{Filename: "f.go", Start: 10, End: 20, NewText: "x"}},
			}},
		},
		{
			Analyzer: "b",
			Fixes: []lint.SuggestedFix{{
				Message: "second",
				Edits:   []lint.TextEdit{{Filename: "f.go", Start: 15, End: 25, NewText: "y"}},
			}},
		},
	}
	plan := lint.PlanFixes(diags)
	if plan.NumEdits() != 1 {
		t.Errorf("NumEdits = %d, want 1", plan.NumEdits())
	}
	if plan.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", plan.Dropped())
	}
	if plan.NumFiles() != 1 {
		t.Errorf("NumFiles = %d, want 1", plan.NumFiles())
	}
}
