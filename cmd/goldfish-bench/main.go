// Command goldfish-bench runs the paper-reproduction experiments and prints
// their tables and figures as text.
//
// Usage:
//
//	goldfish-bench -list
//	goldfish-bench -exp table3
//	goldfish-bench -exp fig5 -scale medium -seed 7
//	goldfish-bench -exp all -scale tiny
//	goldfish-bench -exp scenario -config examples/scenarios/smoke.json
//
// Scales: tiny (seconds per experiment), small (default), medium, paper
// (hours; mirrors the paper's dimensions). Performance is measured by
// `go run ./benchmark`, not here.
//
// The pseudo-experiment "scenario" runs a declarative experiment matrix
// from a -config spec file through goldfish.RunScenario, the same path the
// goldfish-scenario command uses; -json then writes the scenario report.
//
// The pseudo-experiment "serve" runs the unlearning-as-a-service SLO
// benchmark: a federation with the deletion-request service attached,
// driven by the deterministic -profile load generator (steady, burst,
// interleaved, idle, or serverless for the no-service baseline); -json
// writes the SLO report (the repo persists these as SLO_*.json):
//
//	goldfish-bench -exp serve -scale tiny -profile burst -json SLO_1.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"goldfish"
	"goldfish/internal/bench"
	"goldfish/internal/data"
	"goldfish/internal/version"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		list  = flag.Bool("list", false, "list available experiments and exit")
		exp   = flag.String("exp", "", "experiment id to run, or \"all\"")
		scale = flag.String("scale", "small", "experiment scale: tiny|small|medium|paper")
		seed  = flag.Int64("seed", 1, "random seed")
		round = flag.Int("rounds", 0, "override round budget (0 = per-scale default)")
		rates = flag.String("rates", "", "comma-separated deletion rates in percent (e.g. 2,6,12)")
		out   = flag.String("out", "", "also append reports to this file")
		jsonP = flag.String("json", "", "write the scenario report (-exp scenario) or the SLO report (-exp serve) here")
		cfgP  = flag.String("config", "", "scenario spec file for -exp scenario")
		prof  = flag.String("profile", "steady",
			"load profile for -exp serve: steady|burst|interleaved|idle, or serverless for the no-service baseline")
		qcap   = flag.Int("queue-cap", 0, "deletion-queue capacity for -exp serve (0 = default)")
		traceP = flag.String("trace", "", "write a JSONL span trace of the run to this path (side channel; reports stay byte-identical)")
		obsOut = flag.String("obs", "", "write the metrics snapshot (counters/histograms JSON) to this path after the run")
		ver    = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()

	if *ver {
		version.Fprint(os.Stdout, "goldfish-bench")
		return 0
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "goldfish-bench: -exp is required (or -list); e.g. -exp table3")
		return 2
	}

	observer, finish, oerr := setupObservability(*traceP, *obsOut)
	if oerr != nil {
		fmt.Fprintf(os.Stderr, "goldfish-bench: %v\n", oerr)
		return 1
	}
	defer finish()

	opts := bench.Options{Scale: data.Scale(*scale), Seed: *seed, Rounds: *round}
	if *rates != "" {
		for _, part := range strings.Split(*rates, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "goldfish-bench: bad -rates value %q: %v\n", part, err)
				return 2
			}
			opts.DeletionRates = append(opts.DeletionRates, v)
		}
	}

	var sink io.Writer = os.Stdout
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "goldfish-bench: %v\n", err)
			return 1
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "goldfish-bench: closing %s: %v\n", *out, cerr)
			}
		}()
		sink = io.MultiWriter(os.Stdout, f)
	}

	var targets []bench.Experiment
	switch *exp {
	case "all":
		targets = bench.Experiments()
	case "scenario":
		return runScenario(sink, *cfgP, *jsonP, observer)
	case "serve":
		return runServe(sink, opts, *prof, *qcap, *jsonP, observer)
	default:
		e, err := bench.ByID(*exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "goldfish-bench: %v\n", err)
			return 2
		}
		targets = []bench.Experiment{e}
	}
	if *jsonP != "" {
		fmt.Fprintln(os.Stderr, "goldfish-bench: -json applies only to -exp scenario and -exp serve")
		return 2
	}

	for _, e := range targets {
		start := time.Now()
		report, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "goldfish-bench: %s failed: %v\n", e.ID, err)
			return 1
		}
		elapsed := time.Since(start)
		report.Render(sink)
		fmt.Fprintf(sink, "(%s completed in %v at scale %s)\n\n", e.ID, elapsed.Round(time.Millisecond), *scale)
	}
	return 0
}

// runScenario runs a declarative experiment matrix through the public
// goldfish.RunScenario path, mirroring the goldfish-scenario command.
func runScenario(sink io.Writer, cfgPath, jsonPath string, observer *goldfish.Observer) int {
	if cfgPath == "" {
		fmt.Fprintln(os.Stderr, "goldfish-bench: -exp scenario requires -config file.json")
		return 2
	}
	spec, err := goldfish.LoadScenario(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-bench: %v\n", err)
		return 2
	}
	start := time.Now()
	rep, err := goldfish.RunScenario(goldfish.WithObservability(context.Background(), observer), spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-bench: %v\n", err)
		return 1
	}
	rep.RenderText(sink)
	fmt.Fprintf(sink, "(scenario %s completed in %v)\n", spec.Name, time.Since(start).Round(time.Millisecond))
	if jsonPath != "" {
		if err := rep.WriteJSON(jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "goldfish-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(sink, "wrote %s\n", jsonPath)
	}
	if err := rep.Complete(); err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-bench: incomplete matrix: %v\n", err)
		return 1
	}
	return 0
}

// runServe executes the unlearning-as-a-service SLO benchmark, prints the
// text summary, and writes the JSON artifact when a path is given.
func runServe(sink io.Writer, opts bench.Options, profile string, queueCap int, jsonPath string, observer *goldfish.Observer) int {
	rep, err := bench.RunServe(bench.ServeOptions{
		Options:  opts,
		Profile:  profile,
		QueueCap: queueCap,
		Observer: observer,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-bench: serve: %v\n", err)
		return 1
	}
	fmt.Fprint(sink, rep.RenderText())
	if jsonPath != "" {
		if err := rep.WriteJSON(jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "goldfish-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(sink, "wrote %s\n", jsonPath)
	}
	return 0
}

// setupObservability builds the run's Observer from the -trace/-obs flags
// (nil when both are empty — observability off). The returned finish flushes:
// it reports any trace-sink write error, closes the trace file and writes the
// -obs metrics snapshot.
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
			fmt.Fprintf(os.Stderr, "goldfish-bench: %v\n", err)
		}
		if traceFile != nil {
			if err := traceFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "goldfish-bench: closing %s: %v\n", tracePath, err)
			}
		}
		if obsPath != "" {
			f, err := os.Create(obsPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "goldfish-bench: %v\n", err)
				return
			}
			if err := observer.WriteSnapshot(f); err != nil {
				fmt.Fprintf(os.Stderr, "goldfish-bench: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "goldfish-bench: closing %s: %v\n", obsPath, err)
			}
		}
	}
	return observer, finish, nil
}
