package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

// childEnv makes the test binary stand in for the benchmark binary: runChild
// re-executes os.Executable(), which under `go test` is this binary, and
// with childEnv set the child runs main() instead of the tests. The value
// "fail" also puts the accuracy floor of short runs out of reach, so that an
// output check fails.
const childEnv = "GOLDFISH_BENCHMARK_TEST_CHILD"

func TestMain(m *testing.M) {
	switch os.Getenv(childEnv) {
	case "":
		os.Exit(m.Run())
	case "fail":
		shortRunFloor = 2
	}
	main()
}

// benchmarkJSON is the part of ../BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSpecMatchesBenchmarkJSON keeps the workload and metric lists in code
// and in BENCHMARK.json identical: names, order, units, directions.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if doc.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, the schedules are sized for %d", doc.RunSeconds, refSeconds)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloadNames[i])
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, set := range []struct {
		what string
		json []declared
		code []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(set.json) != len(set.code) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the harness %d", set.what, len(set.json), len(set.code))
		}
		for i, d := range set.json {
			c := set.code[i]
			if d.Name != c.name || d.Unit != c.unit || d.Better != c.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", set.what, i, d, c)
			}
			if !name.MatchString(d.Name) {
				t.Errorf("%s: bad metric name %q", set.what, d.Name)
			}
			if set.what == "end_to_end" && d.Bound != bounds[d.Name] {
				t.Errorf("%s: bound %g, the A/A report gates at %g", d.Name, d.Bound, bounds[d.Name])
			}
		}
	}
}

// quickRun runs one workload at smoke-test sizes in this process.
func quickRun(t *testing.T, workload string, trace bool, outDir string) *report {
	t.Helper()
	rep, err := runWorkload(context.Background(), options{
		workload: workload, seed: 7, seconds: refSeconds, trace: trace, quick: true,
		outDir: outDir, start: time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsFailed != 0 || rep.OpsAttempted == 0 {
		var out bytes.Buffer
		printReport(&out, rep)
		t.Fatalf("%d of %d operations failed:\n%s", rep.OpsFailed, rep.OpsAttempted, out.String())
	}
	return rep
}

// TestSmoke runs every workload traced at -quick sizes, so a broken harness
// fails here instead of in the pipeline: the result object carries exactly
// the declared metrics, all finite; every end-to-end value is positive, and
// so is every time or rate a layer of that workload reports.
func TestSmoke(t *testing.T) {
	for _, workload := range workloadNames {
		t.Run(workload, func(t *testing.T) {
			dir := t.TempDir()
			rep := quickRun(t, workload, true, dir)
			for _, set := range []struct {
				trace bool
				specs []metricSpec
			}{{false, endToEnd}, {true, perLayer}} {
				rep.Trace = set.trace
				res := rep.result()
				if len(res.Metrics) != len(set.specs) {
					t.Errorf("trace=%v: result has %d metrics, want %d", set.trace, len(res.Metrics), len(set.specs))
				}
				for _, s := range set.specs {
					m, ok := res.Metrics[s.name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", s.name)
					case m.Unit != s.unit:
						t.Errorf("%s: unit %q, want %q", s.name, m.Unit, s.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", s.name, m.Value)
					case m.Value <= 0 && mustBePositive(s, workload, set.trace):
						t.Errorf("%s = %v, want > 0", s.name, m.Value)
					}
				}
			}
			// A placeholder stands in for exactly the end-to-end metrics that
			// are not defined on the workload, and the report says which.
			var undefined []string
			for _, s := range endToEnd {
				if !s.appliesTo(workload) {
					undefined = append(undefined, s.name)
				}
			}
			if !slices.Equal(rep.Placeholders, undefined) {
				t.Errorf("placeholders %v, want %v", rep.Placeholders, undefined)
			}
			if _, err := os.Stat(filepath.Join(dir, workload+".trace.jsonl")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// mustBePositive says whether a metric can never legitimately read 0 on this
// workload: every end-to-end metric, and per-layer times, rates and sizes of
// layers the workload runs. Counts and shares (GC cycles, coalesced share,
// attack success before unlearning, tracing overhead) may be 0 or negative.
func mustBePositive(s metricSpec, workload string, perLayer bool) bool {
	if !perLayer {
		return true
	}
	if !s.appliesTo(workload) {
		return false
	}
	switch s.unit {
	case "ms", "us", "GFLOP/s", "B", "KB", "MB":
		return s.name != "go.gc_pause_ms"
	}
	return false
}

// TestSameSeedSameState: two same-seed runs of a closed-loop workload end in
// the same global state vector, bit for bit.
func TestSameSeedSameState(t *testing.T) {
	for _, workload := range []string{wlTrainLeNet, wlTrainResNet, wlUnlearn} {
		t.Run(workload, func(t *testing.T) {
			a, b := quickRun(t, workload, false, ""), quickRun(t, workload, false, "")
			if a.StateSHA256 == "" || a.StateSHA256 != b.StateSHA256 {
				t.Errorf("state_sha256 %q vs %q", a.StateSHA256, b.StateSHA256)
			}
		})
	}
}

// TestMissingMetricIsAnError: a metric that is defined on the workload and
// was not measured fails the run instead of being papered over.
func TestMissingMetricIsAnError(t *testing.T) {
	b := &bench{opt: options{workload: wlServe}, rep: &report{EndToEnd: map[string]metric{}}}
	for _, name := range []string{"setup_s", "round_p50_s", "samples_per_s", "peak_rss_mb", "ttf_p50_s"} {
		b.setE2E(name, 1)
	}
	if err := b.fillPlaceholders(); err == nil {
		t.Error("ttf_p90_s is defined on serve-steady and missing, yet fillPlaceholders returned no error")
	}
	b.setE2E("ttf_p90_s", 1)
	if err := b.fillPlaceholders(); err != nil {
		t.Error(err)
	}
	if want := []string{"forget_p50_s", "retrain_p50_s"}; !slices.Equal(b.rep.Placeholders, want) {
		t.Errorf("placeholders %v, want %v", b.rep.Placeholders, want)
	}
}

// TestChildExitCode runs workloads the way the all-workloads and A/A modes
// do, in a child process: a passing child returns its result line and no
// error; a child with a failed check still prints its result line, exits
// with code 1, and runAll passes the failure on.
func TestChildExitCode(t *testing.T) {
	opt := options{seconds: refSeconds, quick: true, outDir: t.TempDir()}

	t.Setenv(childEnv, "pass")
	res, err := runChild(io.Discard, opt, wlTrainLeNet, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("passing child: %+v", res)
	}

	t.Setenv(childEnv, "fail")
	res, err = runChild(io.Discard, opt, wlTrainLeNet, 7)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("failing child: error %v, want exit status 1", err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("failing child: %+v", res)
	}
	if err := runAll(io.Discard, opt, []string{wlServe, wlTrainLeNet}); err == nil {
		t.Error("runAll returned no error although a child failed a check")
	}
}

// TestAACompare: the two sets of an A/A report run the same code, so a set B
// that reads much better than A is noise too, and fails the pair.
func TestAACompare(t *testing.T) {
	lower := metricSpec{name: "round_p50_s", better: "lower"}
	a := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	scale := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, x := range a {
			out[i] = f * x
		}
		return out
	}
	for _, c := range []struct {
		f    float64
		want bool
	}{{1.02, true}, {0.98, true}, {1.4, false}, {0.6, false}} {
		if diff, _, _, ok := aaCompare(lower, a, scale(c.f)); ok != c.want {
			t.Errorf("B = %.2f x A: diff %+.2f, pass %v, want %v", c.f, diff, ok, c.want)
		}
	}
	wide := []float64{0.5, 0.8, 1.0, 1.2, 1.5}
	if _, sa, _, ok := aaCompare(lower, wide, wide); ok {
		t.Errorf("spread %.2f passes a bound of %.2f", sa, bounds[lower.name])
	}
	if _, _, _, ok := aaCompare(metricSpec{name: "setup_s", better: "lower"}, wide, wide); !ok {
		t.Error("setup_s is gated on its medians alone, yet a wide spread failed it")
	}
}
