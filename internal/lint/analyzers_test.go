package lint_test

import (
	"path/filepath"
	"testing"

	"goldfish/internal/lint"
	"goldfish/internal/lint/linttest"
)

func testdata(dir string) string {
	return filepath.Join("testdata", "src", dir)
}

// TestErrdrop pins the discarded-error rule inside the scoped packages:
// blank assigns and ignored error returns are flagged; the fmt print family,
// never-fail writers, defers and //goldfish:errok lines are not.
func TestErrdrop(t *testing.T) {
	linttest.Run(t, testdata("errdrop"), "goldfish/internal/scenario/linttestdata/errdrop", lint.ErrdropAnalyzer)
}

// TestErrdropUnscoped pins that the rule is silent outside ErrdropScopes.
func TestErrdropUnscoped(t *testing.T) {
	linttest.Run(t, testdata("errdrop_unscoped"), "goldfish/internal/bench/linttestdata/errdrop", lint.ErrdropAnalyzer)
}

// TestAPISurfaceMatch loads a fixture under import path "goldfish" whose
// committed golden matches its surface: the gate stays silent.
func TestAPISurfaceMatch(t *testing.T) {
	linttest.Run(t, testdata("apisurface"), "goldfish", lint.APISurfaceAnalyzer)
}

// TestAPISurfaceMissing pins the demand for a golden when none is committed.
func TestAPISurfaceMissing(t *testing.T) {
	linttest.Run(t, testdata("apisurface_missing"), "goldfish", lint.APISurfaceAnalyzer)
}

// TestAPISurfaceMismatch pins the first-difference report against a stale
// golden.
func TestAPISurfaceMismatch(t *testing.T) {
	linttest.Run(t, testdata("apisurface_mismatch"), "goldfish", lint.APISurfaceAnalyzer)
}

// TestAPISurfaceAPIOK pins the //goldfish:apiok mid-refactor escape on the
// package clause: even a missing golden stays silent.
func TestAPISurfaceAPIOK(t *testing.T) {
	linttest.Run(t, testdata("apisurface_apiok"), "goldfish", lint.APISurfaceAnalyzer)
}
