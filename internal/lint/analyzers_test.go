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

// TestDeterminism pins the determinism analyzer on a package inside the
// report-producing scope: wall clocks, shared rand, and map-order leaks are
// flagged; seeded generators, sorted collects and directive-suppressed lines
// are not.
func TestDeterminism(t *testing.T) {
	linttest.Run(t, testdata("determinism"), "goldfish/internal/scenario/linttestdata", lint.DeterminismAnalyzer)
}

// TestDeterminismUnscoped loads the same kind of nondeterminism under an
// import path outside the report-producing scope: the analyzer must stay
// silent (the testdata has no want comments, so any diagnostic fails).
func TestDeterminismUnscoped(t *testing.T) {
	linttest.Run(t, testdata("determinism_unscoped"), "goldfish/internal/bench/linttestdata", lint.DeterminismAnalyzer)
}

// TestDeterminismObsAllowlist loads wall-clock reads under the internal/obs
// import path: the clock rule is exempted there (obs is the observability
// side channel that owns the clock) while the shared-rand and map-order
// rules still fire, proving the allowlist is clock-only, not package-wide.
func TestDeterminismObsAllowlist(t *testing.T) {
	linttest.Run(t, testdata("determinism_obs"), "goldfish/internal/obs/linttestdata", lint.DeterminismAnalyzer)
}

// TestRegistry pins registration discipline: init-only literal kebab names,
// forwarding wrappers as the one exception, and lookup errors listing the
// registry's Types().
func TestRegistry(t *testing.T) {
	linttest.Run(t, testdata("registry"), "goldfish/internal/lint/linttestdata/registry", lint.RegistryAnalyzer)
}

// TestErrwrap pins the prefix-or-%w rule inside the scenario scope.
func TestErrwrap(t *testing.T) {
	linttest.Run(t, testdata("errwrap"), "goldfish/internal/scenario/linttestdata", lint.ErrwrapAnalyzer)
}

// TestErrwrapUnscoped pins that only the global errors.New(fmt.Sprintf(…))
// rule applies outside the scoped packages.
func TestErrwrapUnscoped(t *testing.T) {
	linttest.Run(t, testdata("errwrap_unscoped"), "goldfish/internal/bench/linttestdata", lint.ErrwrapAnalyzer)
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

// TestGoleak pins the join/cancellation-edge rule: joinless goroutines
// (literal and named-callee through the call graph) are flagged; WaitGroup
// Done, ctx.Done/Err, package-closed channel receives, result sends and
// //goldfish:goleakok lines are not.
func TestGoleak(t *testing.T) {
	linttest.Run(t, testdata("goleak"), "goldfish/internal/lint/linttestdata/goleak", lint.GoleakAnalyzer)
}

// TestConcurrency pins the Scorer/Prober contract checks: unguarded aliased
// receiver writes are flagged; mutex-guarded, atomic, read-only and
// copy-local writes are not.
func TestConcurrency(t *testing.T) {
	linttest.Run(t, testdata("concurrency"), "goldfish/internal/lint/linttestdata/concurrency", lint.ConcurrencyAnalyzer)
}

// TestHotPathAlloc pins the call-graph-aware allocation rule inside the
// scoped packages: builtins, composite literals and constructor calls
// reachable from a //goldfish:hotpath root are flagged; //goldfish:coldpath
// cuts subtrees out of reachability and //goldfish:allocok vouches for lines.
func TestHotPathAlloc(t *testing.T) {
	linttest.Run(t, testdata("hotpathalloc"), "goldfish/internal/tensor/linttestdata/hotpathalloc", lint.HotPathAllocAnalyzer)
}

// TestCtxFlow pins both context rules against a package inside the sink
// scope: manufactured Background/TODO contexts with a parameter in scope,
// and context parameters accepted but never used on a path to the sink
// layer; //goldfish:ctxok opts out per line or per declaration.
func TestCtxFlow(t *testing.T) {
	linttest.Run(t, testdata("ctxflow"), "goldfish/internal/fed/linttestdata/ctxflow", lint.CtxFlowAnalyzer)
}

// TestLockOrder pins the interprocedural acquisition-order rule: direct and
// call-graph-transitive opposite-order pairs and self-re-entry are flagged;
// a consistent global order is silent; //goldfish:lockok removes an edge.
func TestLockOrder(t *testing.T) {
	linttest.Run(t, testdata("lockorder"), "goldfish/internal/lint/linttestdata/lockorder", lint.LockOrderAnalyzer)
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
