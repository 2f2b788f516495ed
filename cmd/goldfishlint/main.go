// Command goldfishlint runs the repo's static-analysis suite (internal/lint)
// over package patterns, multichecker-style: every analyzer on every
// matched package, diagnostics printed one per line (-json switches to
// newline-delimited JSON), non-zero exit when any fire. CI runs
// `go run ./cmd/goldfishlint ./...` so a PR that breaks a determinism,
// registry, error-wrapping, error-discard, concurrency, goroutine-leak,
// hot-path-allocation, context-flow, lock-order or API-surface contract
// fails before any golden fixture or determinism gate
// does. `goldfishlint -fix` applies the analyzers' mechanical suggested
// fixes atomically per file (`-fix -dry-run` prints them as a diff and
// exits 1 while any are pending — the CI gate). `goldfishlint -api` prints
// the canonical exported surface of package goldfish that the apisurface
// analyzer gates on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"goldfish/internal/lint"
	"goldfish/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("goldfishlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		showVersion = fs.Bool("version", false, "print the goldfishlint version and exit")
		listRules   = fs.Bool("lint-rules", false, "print the enabled analyzers and their docs, then exit")
		jsonOut     = fs.Bool("json", false, "print diagnostics as JSON, one object per line")
		apiOut      = fs.Bool("api", false, "print the canonical exported API surface of package goldfish and exit")
		applyFix    = fs.Bool("fix", false, "apply the analyzers' suggested mechanical fixes to the source files")
		dryRun      = fs.Bool("dry-run", false, "with -fix: print the fixes as a diff instead of applying them; exit 1 if any are pending")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: goldfishlint [flags] [packages]\n\n"+
			"Runs the goldfish static-analysis suite on the given package patterns\n"+
			"(default ./...). Exits 1 when any diagnostic fires.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dryRun && !*applyFix {
		fmt.Fprintln(stderr, "goldfishlint: -dry-run requires -fix")
		return 2
	}
	if *showVersion {
		version.Fprint(stdout, "goldfishlint")
		return 0
	}
	if *listRules {
		printRules(stdout)
		return 0
	}
	if *apiOut {
		return printAPI(stdout, stderr)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	moduleDir, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "goldfishlint: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(moduleDir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "goldfishlint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "goldfishlint: %v\n", err)
		return 2
	}
	diags, err := lint.Run(pkgs, lint.Suite())
	if err != nil {
		fmt.Fprintf(stderr, "goldfishlint: %v\n", err)
		return 2
	}
	if *applyFix {
		return runFix(diags, *dryRun, stdout, stderr)
	}
	if perr := printDiags(stdout, diags, *jsonOut); perr != nil {
		fmt.Fprintf(stderr, "goldfishlint: %v\n", perr)
		return 2
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "goldfishlint: %d violation(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// runFix drives the -fix engine over the diagnostics: dry-run renders the
// planned edits as a deterministic diff and exits 1 while any mechanical fix
// is pending (the CI gate), apply mode rewrites the files atomically and
// exits 1 only when unfixable diagnostics remain.
func runFix(diags []lint.Diagnostic, dryRun bool, stdout, stderr io.Writer) int {
	plan := lint.PlanFixes(diags)
	unfixable := 0
	for _, d := range diags {
		if len(d.Fixes) == 0 {
			unfixable++
			fmt.Fprintln(stdout, d)
		}
	}
	if dryRun {
		if !plan.Empty() {
			diff, err := plan.Diff()
			if err != nil {
				fmt.Fprintf(stderr, "goldfishlint: %v\n", err)
				return 2
			}
			if _, err := stdout.Write(diff); err != nil {
				fmt.Fprintf(stderr, "goldfishlint: %v\n", err)
				return 2
			}
			fmt.Fprintf(stderr, "goldfishlint: %d mechanical fix edit(s) pending in %d file(s); run goldfishlint -fix\n",
				plan.NumEdits(), plan.NumFiles())
			return 1
		}
		if unfixable > 0 {
			fmt.Fprintf(stderr, "goldfishlint: %d violation(s) without a mechanical fix\n", unfixable)
			return 1
		}
		return 0
	}
	changed, err := plan.Apply()
	if err != nil {
		fmt.Fprintf(stderr, "goldfishlint: %v\n", err)
		return 2
	}
	if changed > 0 {
		fmt.Fprintf(stderr, "goldfishlint: applied %d fix edit(s) across %d file(s)\n", plan.NumEdits(), changed)
	}
	if unfixable > 0 {
		fmt.Fprintf(stderr, "goldfishlint: %d violation(s) need manual fixes\n", unfixable)
		return 1
	}
	return 0
}

// jsonDiag is the -json wire shape: one object per line carrying the stable
// subset of a Diagnostic that scripts and editors consume.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// printDiags writes the diagnostics either in the human file:line:col form or
// as newline-delimited JSON (each Encode terminates its object with a
// newline, giving the one-object-per-line stream). Both formats are pinned
// by CLI tests. lint.Run already sorted the diagnostics by analyzer name
// then position, so both streams are deterministic for CI diffing.
func printDiags(w io.Writer, diags []lint.Diagnostic, asJSON bool) error {
	if !asJSON {
		for _, d := range diags {
			fmt.Fprintln(w, d)
		}
		return nil
	}
	enc := json.NewEncoder(w)
	for _, d := range diags {
		if err := enc.Encode(jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		}); err != nil {
			return fmt.Errorf("encoding diagnostic: %w", err)
		}
	}
	return nil
}

// printAPI renders the root package's canonical exported surface — the exact
// bytes the apisurface analyzer compares against api/goldfish.txt — so the
// golden can be inspected, diffed, or regenerated by hand
// (`goldfishlint -api > api/goldfish.txt`).
func printAPI(stdout, stderr io.Writer) int {
	moduleDir, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "goldfishlint: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(moduleDir, "goldfish")
	if err != nil {
		fmt.Fprintf(stderr, "goldfishlint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load("goldfish")
	if err != nil {
		fmt.Fprintf(stderr, "goldfishlint: %v\n", err)
		return 2
	}
	if len(pkgs) != 1 {
		fmt.Fprintf(stderr, "goldfishlint: pattern \"goldfish\" matched %d packages, want 1\n", len(pkgs))
		return 2
	}
	if _, err := io.WriteString(stdout, lint.Surface(pkgs[0])); err != nil {
		fmt.Fprintf(stderr, "goldfishlint: writing API surface: %v\n", err)
		return 2
	}
	return 0
}

// printRules writes the analyzer roster sorted by analyzer name — the
// deterministic order the satellite CLI test pins, so CI diffs of
// -lint-rules output are stable: name, one-line summary, full doc.
func printRules(w io.Writer) {
	suite := append([]*lint.Analyzer(nil), lint.Suite()...)
	sort.Slice(suite, func(i, j int) bool { return suite[i].Name < suite[j].Name })
	fmt.Fprintf(w, "goldfishlint analyzers (%d):\n\n", len(suite))
	for _, a := range suite {
		fmt.Fprintf(w, "%s: %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		for _, line := range strings.Split(a.Doc, "\n")[1:] {
			fmt.Fprintf(w, "    %s\n", line)
		}
		fmt.Fprintln(w)
	}
}

// moduleRoot locates the enclosing module's directory, so goldfishlint works
// from any subdirectory of the repo.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("locating go.mod: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("goldfishlint must run inside a Go module")
	}
	return filepath.Dir(gomod), nil
}
