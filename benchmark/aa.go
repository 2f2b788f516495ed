package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload in a child process of its own — never two at
// once, so peak_rss_mb is that workload's alone and nothing competes for
// the two cores — and returns its result line. The child's report goes to
// out; a non-zero child exit is returned as the error.
func runChild(out io.Writer, opt options, workload string, seed int64) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(opt.seconds), "--trace", trace, "--out", opt.outDir}
	if opt.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", workload, runErr)
		}
		return result{}, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", workload, runErr)
	}
	return res, nil
}

// runAll runs the named workloads one after another and returns an error if
// any child exited non-zero.
func runAll(w io.Writer, opt options, names []string) error {
	var failed []string
	for _, name := range names {
		if _, err := runChild(w, opt, name, opt.seed); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			failed = append(failed, name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// runAA measures the benchmark against itself the way the pipeline accepts
// it: per workload, two sets of n full runs in alternation (A, B, A, B, …),
// run i of either set on seed opt.seed+i. For every (workload, end-to-end
// metric) pair it prints both medians, their relative difference, each
// set's quartile spread (Python's statistics.quantiles, n=4), the metric's
// bound and PASS/FAIL as a Markdown table; benchmark/AA.md is this output,
// committed. Both sets run the same code, so a B that reads better than A is
// as much noise as one that reads worse: a pair passes when the two medians
// differ by no more than the bound in either direction and, except for
// setup_s, each set's spread as a share of its median stays within the bound
// too. Only the pairs a metric is defined on are listed and counted; a
// placeholder repeats its workload's round_p50_s row.
func runAA(w io.Writer, opt options, n int) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs per set, got %d", n)
	}
	opt.trace, opt.quick = false, false
	env := readEnvironment()
	fmt.Fprintf(w, "# A/A: two alternated sets of %d runs, seeds %d..%d, --seconds %d\n\n", n, opt.seed, opt.seed+int64(n)-1, opt.seconds)
	fmt.Fprintf(w, "%s, GOMAXPROCS=%d, NumCPU=%d, commit %s. Spread is (Q3 − Q1) / median over a set's %d runs;\n",
		env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.Commit, n)
	fmt.Fprintf(w, "setup_s passes on the medians alone, as the pipeline gates it. Placeholder pairs are left out: each repeats its workload's round_p50_s.\n\n")
	fmt.Fprintln(w, "| workload | metric | median A | median B | diff | spread A | spread B | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	failures, pairs := 0, 0
	for _, name := range workloadNames {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < n; i++ {
			for s := range sets {
				res, err := runChild(io.Discard, opt, name, opt.seed+int64(i))
				if err != nil {
					return err
				}
				for metric, m := range res.Metrics {
					sets[s][metric] = append(sets[s][metric], m.Value)
				}
			}
		}
		for _, m := range endToEnd {
			if !m.appliesTo(name) {
				continue
			}
			pairs++
			ma, mb := median(sets[0][m.name]), median(sets[1][m.name])
			diff, sa, sb, ok := aaCompare(m, sets[0][m.name], sets[1][m.name])
			bound := bounds[m.name]
			verdict := "PASS"
			if !ok {
				verdict = "FAIL"
				failures++
			}
			fmt.Fprintf(w, "| %s | %s | %.4g %s | %.4g %s | %+.1f %% | %.1f %% | %.1f %% | %.0f %% | %s |\n",
				name, m.name, ma, m.unit, mb, m.unit, 100*diff, 100*sa, 100*sb, 100*bound, verdict)
		}
	}
	fmt.Fprintf(w, "\n%d of %d pairs FAIL.\n", failures, pairs)
	if failures > 0 {
		return fmt.Errorf("%d A/A pairs outside their bound", failures)
	}
	return nil
}

// aaCompare judges one (workload, metric) pair of an A/A report: diff is the
// share of A's median by which B's is worse (negative: better), sa and sb
// the sets' quartile spreads as shares of their medians.
func aaCompare(m metricSpec, a, b []float64) (diff, sa, sb float64, ok bool) {
	ma, mb := median(a), median(b)
	diff = (mb - ma) / ma
	if m.better == "higher" {
		diff = -diff
	}
	spread := func(xs []float64) float64 {
		q1, q3 := quartilesExclusive(xs)
		return (q3 - q1) / median(xs)
	}
	sa, sb = spread(a), spread(b)
	bound := bounds[m.name]
	ok = math.Abs(diff) <= bound
	if m.name != "setup_s" {
		ok = ok && sa <= bound && sb <= bound
	}
	return diff, sa, sb, ok
}
