// Package linttest is the analysistest-style harness for goldfishlint
// analyzers: it loads a testdata package, runs one analyzer, and compares
// the diagnostics against `// want "regexp"` comments in the sources. A line
// that produces a diagnostic must carry a matching want comment and vice
// versa, so both flagged and non-flagged cases are pinned.
package linttest

import (
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"goldfish/internal/lint"
)

// wantRE extracts the expectation from a `// want "…"` comment. The payload
// is a regexp matched against the diagnostic message.
var wantRE = regexp.MustCompile(`//\s*want\s+"((?:[^"\\]|\\.)*)"`)

var (
	loaderOnce sync.Once
	loader     *lint.Loader
	loaderErr  error
)

// sharedLoader builds one Loader for the whole test binary: the `go list
// -deps -export` survey dominates load time, and every testdata package
// draws from the same module dependency set.
func sharedLoader() (*lint.Loader, error) {
	loaderOnce.Do(func() {
		out, err := exec.Command("go", "env", "GOMOD").Output()
		if err != nil {
			loaderErr = fmt.Errorf("linttest: locating go.mod: %w", err)
			return
		}
		moduleDir := filepath.Dir(strings.TrimSpace(string(out)))
		loader, loaderErr = lint.NewLoader(moduleDir, "./...")
	})
	return loader, loaderErr
}

// Run loads the package in testdata dir under the synthetic import path and
// checks the analyzer's diagnostics against the `// want` comments.
func Run(t *testing.T, dir, importPath string, a *lint.Analyzer) {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, dir)
	// Match every diagnostic to a want on its line.
	for _, d := range diags {
		key := lineKey{filepath.Base(d.Pos.Filename), d.Pos.Line}
		w, ok := wants[key]
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", posString(d.Pos), d.Message)
			continue
		}
		if !w.re.MatchString(d.Message) {
			t.Errorf("%s: diagnostic %q does not match want %q", posString(d.Pos), d.Message, w.re)
		}
		w.matched++
	}
	for key, w := range wants {
		if w.matched == 0 {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.re)
		}
	}
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched int
}

// collectWants scans the testdata sources for want comments.
func collectWants(t *testing.T, dir string) map[lineKey]*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[lineKey]*want{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			// The payload is written as a quoted Go-style string inside the
			// comment; unquote it so \\( in the source reads as regexp \(.
			pattern, err := strconv.Unquote(`"` + m[1] + `"`)
			if err != nil {
				t.Fatalf("%s:%d: bad want literal %q: %v", e.Name(), i+1, m[1], err)
			}
			re, err := regexp.Compile(pattern)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, pattern, err)
			}
			wants[lineKey{e.Name(), i + 1}] = &want{re: re}
		}
	}
	return wants
}

func posString(p token.Position) string {
	return fmt.Sprintf("%s:%d:%d", filepath.Base(p.Filename), p.Line, p.Column)
}
