// Command goldfish-bench runs the paper-reproduction experiments and prints
// their tables and figures as text.
//
// Usage:
//
//	goldfish-bench -list
//	goldfish-bench -exp table3
//	goldfish-bench -exp fig5 -scale medium -seed 7
//	goldfish-bench -exp all -scale tiny
//
// Scales: tiny (seconds per experiment), small (default), medium, paper
// (hours; mirrors the paper's dimensions). Performance is measured by
// `go run ./benchmark` and scenario specs run through goldfish-scenario, not
// here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

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
		ver   = flag.Bool("version", false, "print the version and exit")
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
	default:
		e, err := bench.ByID(*exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "goldfish-bench: %v\n", err)
			return 2
		}
		targets = []bench.Experiment{e}
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
