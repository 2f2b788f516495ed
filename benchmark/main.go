// Command benchmark is the repo's end-to-end and per-layer benchmark: four
// long-run workloads over the public goldfish API, eight gated end-to-end
// metrics, and a traced mode that attributes time to the repo's packages.
// BENCHMARK.json at the repo root is its contract; README.md in this
// directory defines every metric.
//
//	go run ./benchmark --workload train-lenet --seed 1 --seconds 20 --trace 0
//	go run ./benchmark                 # all four workloads, one child process each
//	go run ./benchmark -trace 1        # the same, traced: per-layer metrics
//	go run ./benchmark -aa 5           # two alternated sets of 5 runs, A/A report
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// processStart is what setup_s counts from under main.
var processStart = time.Now()

// wantCPUs is the core count the workload sizes were measured on. GOMAXPROCS
// is pinned to it before the first tensor call, because the tensor worker
// pool sizes itself once, on first use.
const wantCPUs = 2

func main() {
	runtime.GOMAXPROCS(wantCPUs)
	debug.SetGCPercent(100) // the default, pinned so that GOGC in the environment cannot move peak_rss_mb
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload to run in this process (default: all four, one child process each)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for the dataset, partition, poison and request-schedule RNGs")
	flag.IntVar(&opt.seconds, "seconds", refSeconds, "length of the measured window the schedules are sized for")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: timed run, prints the end-to-end metrics")
	flag.BoolVar(&opt.quick, "quick", false, "smoke-test sizes (tiny scale, two rounds, one cycle, eight requests)")
	flag.StringVar(&opt.outDir, "out", ".bench_out", "directory for <workload>.json reports and <workload>.trace.jsonl")
	aa := flag.Int("aa", 0, "run two alternated sets of N full runs per workload and print the A/A report")
	flag.Parse()
	opt.trace = *trace != 0
	opt.start = processStart

	var err error
	switch {
	case *aa > 0:
		err = runAA(os.Stdout, opt, *aa)
	case opt.workload == "":
		err = runAll(os.Stdout, opt, workloadNames)
	default:
		err = runOne(os.Stdout, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errChecksFailed makes the process exit non-zero after the result line has
// been printed.
var errChecksFailed = errors.New("output checks failed")

// runOne runs one workload in this process, prints the human-readable
// report and, as the last line of w, the pipeline's result object.
func runOne(w io.Writer, opt options) error {
	rep, err := runWorkload(context.Background(), opt)
	if err != nil {
		return err
	}
	printReport(w, rep)
	line, err := json.Marshal(rep.result())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if rep.OpsFailed > 0 {
		return errChecksFailed
	}
	return nil
}

// runWorkload dispatches to the workload, fills in what every run shares and
// writes the report (and trace) files.
func runWorkload(ctx context.Context, opt options) (*report, error) {
	if opt.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1, got %d", opt.seconds)
	}
	b := &bench{opt: opt, rep: &report{
		Workload: opt.workload, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace, Quick: opt.quick,
		Env: readEnvironment(), EndToEnd: map[string]metric{},
	}}
	if opt.trace {
		b.rec = newRecorder(opt.workload, opt.start)
		b.rep.PerLayer = map[string]metric{}
	}
	var err error
	switch opt.workload {
	case wlTrainLeNet, wlTrainResNet:
		err = b.runTrain(ctx)
	case wlUnlearn:
		err = b.runUnlearn(ctx)
	case wlServe:
		err = b.runServe(ctx)
	default:
		err = fmt.Errorf("unknown workload %q (have %v)", opt.workload, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	if err := b.fillPlaceholders(); err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	if opt.trace {
		b.rep.LayerShares = layerShares(b.rep)
		b.rep.SelfTimes = b.rec.selfTimes()
	}
	if opt.outDir != "" {
		if err := b.writeFiles(); err != nil {
			return nil, err
		}
	}
	return b.rep, nil
}

func (b *bench) writeFiles() error {
	if err := os.MkdirAll(b.opt.outDir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(b.rep, "", "  ")
	if err != nil {
		return err
	}
	name := b.opt.workload
	if b.opt.trace {
		name += ".traced"
	}
	if err := os.WriteFile(filepath.Join(b.opt.outDir, name+".json"), append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if b.rec == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(b.opt.outDir, b.opt.workload+".trace.jsonl"))
	if err != nil {
		return err
	}
	if err := b.rec.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readEnvironment() environment {
	env := environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: "unknown", Degraded: runtime.NumCPU() < wantCPUs,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// result is the pipeline's result object: exactly these four keys, and as
// metrics every end-to-end metric of a timed run or every per-layer metric
// of a traced one.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result() result {
	src := r.EndToEnd
	if r.Trace {
		src = r.PerLayer
	}
	out := result{Correct: r.OpsFailed == 0, Attempted: r.OpsAttempted, Failed: r.OpsFailed, Metrics: map[string]metric{}}
	for name, m := range src {
		out.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// printReport prints the header, every metric by name with its unit, the
// in-run sample count and quartiles where a median was taken, the layer
// shares of a traced run, and the output checks.
func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%d trace=%v quick=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Quick)
	fmt.Fprintf(w, "# %s GOMAXPROCS=%d NumCPU=%d commit=%s degraded=%v\n",
		r.Env.GoVersion, r.Env.GOMAXPROCS, r.Env.NumCPU, r.Env.Commit, r.Env.Degraded)
	printMetrics(w, "end-to-end (untraced window)", endToEnd, r.EndToEnd, r)
	if r.Trace {
		printMetrics(w, "per-layer (traced run)", perLayer, r.PerLayer, r)
		// The "a layer's cost must add up to the layer above it" check: the
		// step's parts against the epoch, the round's phases against the round.
		for _, name := range []string{"core.step_coverage", "fed.phase_coverage"} {
			v, verdict := r.PerLayer[name].Value, "reconciles"
			if v < 0.8 || v > 1.1 {
				verdict = "DOES NOT RECONCILE: outside [0.8, 1.1]"
			}
			fmt.Fprintf(w, "%s = %.3f: %s\n", name, v, verdict)
		}
		fmt.Fprintln(w, "layer shares of one round's busy time:")
		names := make([]string, 0, len(r.LayerShares))
		for name := range r.LayerShares {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return r.LayerShares[names[i]] > r.LayerShares[names[j]] })
		for _, name := range names {
			fmt.Fprintf(w, "  %-10s %5.1f%%\n", name, 100*r.LayerShares[name])
		}
	}
	if r.Trace {
		fmt.Fprintln(w, "largest self times (span minus the part its children cover):")
		for _, st := range r.SelfTimes[:min(12, len(r.SelfTimes))] {
			fmt.Fprintf(w, "  %-28s n=%-5d total %8.3f s  self %8.3f s\n", st.Name, st.Count, st.TotalS, st.SelfS)
		}
	}
	fmt.Fprintf(w, "ops_attempted=%d ops_failed=%d\n", r.OpsAttempted, r.OpsFailed)
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  %s %-34s %s\n", verdict, c.Name, c.Detail)
	}
	if r.StateSHA256 != "" {
		fmt.Fprintf(w, "state_sha256=%s\n", r.StateSHA256)
	}
}

func printMetrics(w io.Writer, title string, specs []metricSpec, got map[string]metric, r *report) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, s := range specs {
		m := got[s.name]
		note := ""
		switch {
		case slices.Contains(r.Placeholders, s.name):
			note = "  PLACEHOLDER: not defined on this workload, repeats round_p50_s"
		case !s.appliesTo(r.Workload):
			note = "  (layer not run on this workload)"
		case m.N > 0 && m.Q1 != 0:
			note = fmt.Sprintf("  (n=%d q1=%.6g q3=%.6g)", m.N, m.Q1, m.Q3)
		case m.N > 0:
			note = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-8s%s\n", s.name, m.Value, m.Unit, note)
	}
}
