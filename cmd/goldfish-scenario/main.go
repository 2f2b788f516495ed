// Command goldfish-scenario runs a declarative unlearning experiment matrix
// from a JSON spec file: dataset and partitioner, optional attack injection
// (a single attack.type, or an attack.types axis sweeping several probe
// styles — "backdoor", "label-flip", "targeted-class"), a deletion schedule
// (sample-, class- or client-level requests at given rounds), and the
// strategy × seed × attack axes. Cells execute concurrently and the
// structured report is deterministic — two runs of the same spec produce
// byte-identical JSON.
//
// Usage:
//
//	goldfish-scenario -config examples/scenarios/smoke.json
//	goldfish-scenario -config spec.json -json report.json
//	goldfish-scenario -config spec.json -validate
//	goldfish-scenario -config spec.json -trace trace.jsonl -obs metrics.json
//
// A committed baseline report gates regressions: -baseline diffs the fresh
// report against it cell-by-cell with Welch t-tests across the seed axis and
// exits non-zero on any statistically significant accuracy/ASR/membership
// worsening or newly failing cell:
//
//	goldfish-scenario -config spec.json -baseline examples/scenarios/baselines/smoke.json
//
// On SIGINT/SIGTERM the finished cells are not discarded: with -json the
// partial report is written (marked incomplete) before exiting non-zero. To
// resume, run the same invocation again: the report is deterministic, so the
// rerun reproduces every finished row byte for byte and completes the rest.
//
// The command exits non-zero when the spec is invalid, when any matrix cell
// is missing from or failed in the report, or when -baseline finds a
// regression, so CI can gate on it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"goldfish"
	"goldfish/internal/version"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		config   = flag.String("config", "", "scenario spec file (JSON, required)")
		jsonP    = flag.String("json", "", "write the structured report to this path")
		workers  = flag.Int("workers", 0, "override the spec's worker-pool bound (0 = spec/default)")
		validate = flag.Bool("validate", false, "parse and validate the spec, then exit")
		baseline = flag.String("baseline", "", "diff the report against this baseline report; exit non-zero on significant regressions")
		alpha    = flag.Float64("alpha", 0, "baseline diff significance level (default 0.05)")
		minDelta = flag.Float64("min-delta", 0, "baseline diff practical-significance floor on metric deltas")
		traceP   = flag.String("trace", "", "write a JSONL span trace of the run to this path (side channel; the report stays byte-identical)")
		obsP     = flag.String("obs", "", "write the metrics snapshot (counters/histograms JSON) to this path after the run")
		showVer  = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()

	if *showVer {
		version.Fprint(os.Stdout, "goldfish-scenario")
		return 0
	}
	if *config == "" {
		fmt.Fprintln(os.Stderr, "goldfish-scenario: -config is required; e.g. -config examples/scenarios/smoke.json")
		return 2
	}
	spec, err := goldfish.LoadScenario(*config)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-scenario: %v\n", err)
		return 2
	}
	if *validate {
		// RunScenario re-validates on the run path; this branch exists to
		// surface resolved-preset errors without training.
		if err := goldfish.ValidateScenario(spec); err != nil {
			fmt.Fprintf(os.Stderr, "goldfish-scenario: %v\n", err)
			return 2
		}
		axes := fmt.Sprintf("%d strategies × %d seeds", len(spec.Strategies), len(spec.SeedList()))
		if spec.Attack != nil {
			axes += fmt.Sprintf(" × %d attack types", len(spec.AttackList()))
		}
		fmt.Printf("%s: valid (%s = %d cells)\n", *config, axes, len(spec.Cells()))
		return 0
	}
	if *workers > 0 {
		spec.Workers = *workers
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	observer, finish, oerr := setupObservability(*traceP, *obsP)
	if oerr != nil {
		fmt.Fprintf(os.Stderr, "goldfish-scenario: %v\n", oerr)
		return 1
	}
	defer finish()
	ctx = goldfish.WithObservability(ctx, observer)

	rep, err := goldfish.RunScenario(ctx, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-scenario: %v\n", err)
		if rep == nil {
			return 1
		}
		// Interrupted mid-matrix: persist the finished cells (marked
		// incomplete) instead of discarding them.
		rep.RenderText(os.Stdout)
		if *jsonP != "" {
			if werr := rep.WriteJSON(*jsonP); werr != nil {
				fmt.Fprintf(os.Stderr, "goldfish-scenario: %v\n", werr)
			} else {
				fmt.Printf("wrote partial report (%d finished cells) to %s\n", len(rep.Cells), *jsonP)
			}
		}
		return 1
	}

	rep.RenderText(os.Stdout)
	if *jsonP != "" {
		if err := rep.WriteJSON(*jsonP); err != nil {
			fmt.Fprintf(os.Stderr, "goldfish-scenario: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *jsonP)
	}
	if err := rep.Complete(); err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-scenario: incomplete matrix: %v\n", err)
		return 1
	}
	if *baseline != "" {
		old, err := goldfish.LoadScenarioReport(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "goldfish-scenario: %v\n", err)
			return 2
		}
		diff, err := goldfish.DiffScenarioReports(old, rep, goldfish.ScenarioDiffOptions{Alpha: *alpha, MinDelta: *minDelta})
		if err != nil {
			fmt.Fprintf(os.Stderr, "goldfish-scenario: %v\n", err)
			return 1
		}
		diff.RenderText(os.Stdout)
		if diff.HasRegressions() {
			fmt.Fprintf(os.Stderr, "goldfish-scenario: %d significant regressions and %d newly failing cells vs %s\n",
				len(diff.Regressions()), len(diff.NewlyFailing), *baseline)
			return 1
		}
		fmt.Printf("no significant regressions vs %s\n", *baseline)
	}
	return 0
}

// setupObservability builds the run's Observer from the -trace/-obs flags
// (nil when both are empty — observability off). The returned finish flushes:
// it reports any trace-sink write error, closes the trace file and writes the
// -obs metrics snapshot, so it runs even when the matrix exits early.
func setupObservability(tracePath, obsPath string) (*goldfish.Observer, func(), error) {
	if tracePath == "" && obsPath == "" {
		return nil, func() {}, nil
	}
	var traceFile *os.File
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, nil, fmt.Errorf("opening trace sink: %w", err)
		}
		traceFile = f
	}
	var tw io.Writer
	if traceFile != nil {
		tw = traceFile
	}
	observer := goldfish.NewObserver(tw)
	finish := func() {
		if err := observer.TraceErr(); err != nil {
			fmt.Fprintf(os.Stderr, "goldfish-scenario: %v\n", err)
		}
		if traceFile != nil {
			if err := traceFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "goldfish-scenario: closing %s: %v\n", tracePath, err)
			}
		}
		if obsPath != "" {
			f, err := os.Create(obsPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "goldfish-scenario: %v\n", err)
				return
			}
			if err := observer.WriteSnapshot(f); err != nil {
				fmt.Fprintf(os.Stderr, "goldfish-scenario: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "goldfish-scenario: closing %s: %v\n", obsPath, err)
			}
		}
	}
	return observer, finish, nil
}
