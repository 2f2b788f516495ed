package main

import (
	"bytes"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goldfish/internal/lint"
	"goldfish/internal/version"
)

// TestLintRulesMatchesSuite asserts the -lint-rules introspection lists
// exactly the registered analyzer suite, each with its one-line summary, so
// the CLI's self-description cannot drift from lint.Suite().
func TestLintRulesMatchesSuite(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-lint-rules"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-lint-rules exited %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	suite := lint.Suite()
	if want := fmt.Sprintf("goldfishlint analyzers (%d):", len(suite)); !strings.Contains(out, want) {
		t.Errorf("-lint-rules output missing header %q:\n%s", want, out)
	}
	for _, a := range suite {
		summary := strings.SplitN(a.Doc, "\n", 2)[0]
		if want := a.Name + ": " + summary; !strings.Contains(out, want) {
			t.Errorf("-lint-rules output missing %q:\n%s", want, out)
		}
	}
	// No analyzer outside the suite may be listed: every roster line has the
	// unindented "name: summary" shape.
	known := map[string]bool{}
	for _, a := range suite {
		known[a.Name] = true
	}
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, " ") || strings.HasPrefix(line, "goldfishlint analyzers") {
			continue
		}
		name, _, ok := strings.Cut(line, ": ")
		if !ok || !known[name] {
			t.Errorf("-lint-rules lists %q, which is not in lint.Suite()", line)
		}
	}
}

// TestLintRulesSortedByName pins the -lint-rules roster order: analyzer
// names ascending, regardless of the suite's logical registration order, so
// the output is stable for CI diffing.
func TestLintRulesSortedByName(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-lint-rules"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-lint-rules exited %d, stderr: %s", code, stderr.String())
	}
	var names []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if line == "" || strings.HasPrefix(line, " ") || strings.HasPrefix(line, "goldfishlint analyzers") {
			continue
		}
		if name, _, ok := strings.Cut(line, ": "); ok {
			names = append(names, name)
		}
	}
	if len(names) != len(lint.Suite()) {
		t.Fatalf("-lint-rules listed %d analyzers, want %d", len(names), len(lint.Suite()))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("-lint-rules roster not sorted by name: %q before %q", names[i-1], names[i])
		}
	}
}

// TestDiagnosticSortOrder pins the shared output ordering: analyzer name
// first, then filename, line, column, message — so every output mode groups
// by rule and CI diffs are deterministic.
func TestDiagnosticSortOrder(t *testing.T) {
	diags := []lint.Diagnostic{
		{Analyzer: "errdrop", Pos: token.Position{Filename: "z.go", Line: 9}},
		{Analyzer: "errdrop", Pos: token.Position{Filename: "a.go", Line: 5, Column: 2}, Message: "b"},
		{Analyzer: "errdrop", Pos: token.Position{Filename: "a.go", Line: 5, Column: 2}, Message: "a"},
		{Analyzer: "errdrop", Pos: token.Position{Filename: "a.go", Line: 5, Column: 1}},
		{Analyzer: "apisurface", Pos: token.Position{Filename: "z.go", Line: 1}},
	}
	lint.SortDiagnostics(diags)
	got := make([]string, len(diags))
	for i, d := range diags {
		got[i] = fmt.Sprintf("%s/%s:%d:%d:%s", d.Analyzer, d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
	}
	want := []string{
		"apisurface/z.go:1:0:",
		"errdrop/a.go:5:1:",
		"errdrop/a.go:5:2:a",
		"errdrop/a.go:5:2:b",
		"errdrop/z.go:9:0:",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sorted[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestSuiteRoster pins the full analyzer roster in order, so growing or
// shrinking the suite is an explicit, reviewed change rather than a silent
// side effect of a refactor.
func TestSuiteRoster(t *testing.T) {
	want := []string{"errdrop", "apisurface"}
	suite := lint.Suite()
	if len(suite) != len(want) {
		t.Fatalf("lint.Suite() has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("lint.Suite()[%d] = %q, want %q", i, a.Name, want[i])
		}
	}
}

// TestDiagnosticFormats pins both output modes on a fabricated diagnostic:
// the human file:line:col one-per-line form (the default) and the -json
// one-object-per-line form.
func TestDiagnosticFormats(t *testing.T) {
	diags := []lint.Diagnostic{{
		Analyzer: "errdrop",
		Pos:      token.Position{Filename: "internal/serve/serve.go", Line: 42, Column: 7},
		Message:  "error result of Close dropped; handle or return it",
	}}

	var human bytes.Buffer
	printDiags(&human, diags, false)
	if got, want := human.String(), "internal/serve/serve.go:42:7: error result of Close dropped; handle or return it [errdrop]\n"; got != want {
		t.Errorf("human format = %q, want %q", got, want)
	}

	var js bytes.Buffer
	printDiags(&js, diags, true)
	want := `{"file":"internal/serve/serve.go","line":42,"analyzer":"errdrop","message":"error result of Close dropped; handle or return it"}` + "\n"
	if got := js.String(); got != want {
		t.Errorf("json format = %q, want %q", got, want)
	}
}

// TestAPIModePrintsGolden pins `goldfishlint -api` to the committed golden:
// the CLI renders exactly the bytes the apisurface analyzer gates on, so
// `goldfishlint -api > api/goldfish.txt` is a valid regeneration path.
func TestAPIModePrintsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list -export")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-api"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-api exited %d, stderr: %s", code, stderr.String())
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "api", "goldfish.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(golden) {
		t.Errorf("-api output diverges from committed api/goldfish.txt:\n%s", stdout.String())
	}
}

// TestVersionFlag pins the -version banner to the shared version stamp.
func TestVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-version exited %d, stderr: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "goldfishlint "+version.Version) {
		t.Errorf("-version printed %q, want prefix %q", stdout.String(), "goldfishlint "+version.Version)
	}
}

// TestRunCleanRepo runs the real multichecker over a single known-clean
// package and expects a silent zero exit.
func TestRunCleanRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list -export")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./internal/stats"}, &stdout, &stderr); code != 0 {
		t.Fatalf("lint on ./internal/stats exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run printed diagnostics:\n%s", stdout.String())
	}
}

// TestBadFlag pins the usage exit code.
func TestBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}
