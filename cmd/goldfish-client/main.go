// Command goldfish-client joins a federation served by goldfish-server. It
// builds a Goldfish client over one partition of the dataset preset,
// optionally backdoor-poisons a fraction of it, and trains locally every
// round. The wire carries no deletions: a TCP client cannot tell the server
// to unlearn, so deletion runs in-process (goldfish-server -serve).
//
// Usage:
//
//	goldfish-client -addr localhost:7070 -id 0 -of 3 -dataset mnist -scale tiny
//	goldfish-client -addr localhost:7070 -id 1 -of 3 -poison 0.2
//
// The dataset/scale/seed flags must match the server's.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	"goldfish"
	"goldfish/internal/core"
	"goldfish/internal/fed"
	"goldfish/internal/version"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr    = flag.String("addr", "localhost:7070", "server address")
		id      = flag.Int("id", 0, "this client's index (0-based)")
		of      = flag.Int("of", 2, "total number of clients in the federation")
		dataset = flag.String("dataset", "mnist", "dataset preset: mnist|fmnist|cifar10|cifar100")
		scale   = flag.String("scale", "tiny", "experiment scale: tiny|small|medium|paper")
		seed    = flag.Int64("seed", 1, "random seed (must match server)")
		poison  = flag.Float64("poison", 0, "fraction of local data to backdoor-poison (0 disables)")
		ver     = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()

	if *ver {
		version.Fprint(os.Stdout, "goldfish-client")
		return 0
	}

	if *id < 0 || *id >= *of {
		fmt.Fprintf(os.Stderr, "goldfish-client: -id %d out of range [0,%d)\n", *id, *of)
		return 2
	}
	p, err := goldfish.NewPreset(*dataset, goldfish.Scale(*scale), *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-client: %v\n", err)
		return 2
	}
	train, _, err := p.Generate()
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-client: %v\n", err)
		return 1
	}
	// Deterministic partition: every client derives the same split and
	// takes its own slice.
	parts, err := goldfish.PartitionIID(train, *of, rand.New(rand.NewSource(*seed*7717)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-client: %v\n", err)
		return 1
	}
	local := parts[*id]

	if *poison > 0 {
		bd := goldfish.DefaultBackdoor()
		poisoned, err := bd.Poison(local, *poison, rand.New(rand.NewSource(*seed*13+int64(*id))))
		if err != nil {
			fmt.Fprintf(os.Stderr, "goldfish-client: %v\n", err)
			return 1
		}
		fmt.Printf("poisoned %d of %d local samples\n", len(poisoned), local.Len())
	}

	client, err := core.NewClient(*id, p.ClientConfig(), local)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-client: %v\n", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("goldfish-client %d/%d: connecting to %s (%d local samples)\n", *id, *of, *addr, local.Len())
	final, err := fed.RunClient(ctx, *addr, client)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-client: %v\n", err)
		return 1
	}
	fmt.Printf("federation finished; received final global model (%d values)\n", len(final))
	return 0
}
