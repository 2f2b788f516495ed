package lint_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"goldfish/internal/lint"
)

// TestSuiteNames pins the analyzer roster: adding or renaming an analyzer
// must be a conscious act (docs, CI and the -lint-rules output all key on
// these names).
func TestSuiteNames(t *testing.T) {
	want := []string{"errdrop", "apisurface"}
	suite := lint.Suite()
	if len(suite) != len(want) {
		t.Fatalf("Suite() has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("Suite()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing Doc or Run", a.Name)
		}
		if first := strings.SplitN(a.Doc, "\n", 2)[0]; strings.HasSuffix(first, ".") {
			t.Errorf("analyzer %q doc summary %q should not end with a period", a.Name, first)
		}
	}
}

// TestRepoIsClean runs the whole suite over every package of the module —
// the same gate CI applies via `go run ./cmd/goldfishlint ./...` — so a
// contract violation fails plain `go test ./...` too, with the analyzer
// named in the failure.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	moduleDir := filepath.Dir(strings.TrimSpace(string(out)))
	loader, err := lint.NewLoader(moduleDir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages from ./..., expected the whole module", len(pkgs))
	}
	diags, err := lint.Run(pkgs, lint.Suite())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
