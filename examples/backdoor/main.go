// Backdoor: a fuller unlearning study on one deletion rate — compares the
// contaminated origin model, Goldfish unlearning ("ours"), and retraining
// from scratch without the poisoned rows (the B1 reference), reporting
// accuracy, attack success rate, and the model-similarity statistics the
// paper uses (JSD, L2, Welch t-test).
//
// Run with:
//
//	go run ./examples/backdoor
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"goldfish"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "backdoor: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	p, err := goldfish.NewPreset("mnist", goldfish.ScaleTiny, 2)
	if err != nil {
		return err
	}
	train, test, err := p.Generate()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(2))
	parts, err := goldfish.PartitionIID(train, 4, rng)
	if err != nil {
		return err
	}
	bd := goldfish.DefaultBackdoor()
	poisoned, err := bd.Poison(parts[0], 0.3, rng)
	if err != nil {
		return err
	}
	triggered, err := bd.TriggerCopy(test)
	if err != nil {
		return err
	}

	// Origin + ours share one engine running the paper's procedure.
	fedr, err := goldfish.New(
		goldfish.WithPreset(p),
		goldfish.WithPartitions(parts),
		goldfish.WithUnlearner("goldfish"),
	)
	if err != nil {
		return err
	}
	if err := fedr.Run(ctx, p.Rounds); err != nil {
		return err
	}
	origin, err := fedr.GlobalNet()
	if err != nil {
		return err
	}
	if err := fedr.RequestDeletion(0, poisoned); err != nil {
		return err
	}
	if err := fedr.Run(ctx, p.Rounds); err != nil {
		return err
	}
	ours, err := fedr.GlobalNet()
	if err != nil {
		return err
	}

	// B1 reference: the "retrain" strategy runs the same train → delete →
	// recover flow, dropping the poisoned rows and retraining from scratch.
	ref, err := goldfish.New(
		goldfish.WithPreset(p),
		goldfish.WithPartitions(parts),
		goldfish.WithUnlearner("retrain"),
	)
	if err != nil {
		return err
	}
	if err := ref.Run(ctx, p.Rounds); err != nil {
		return err
	}
	if err := ref.RequestDeletion(0, poisoned); err != nil {
		return err
	}
	if err := ref.Run(ctx, p.Rounds); err != nil {
		return err
	}
	b1, err := ref.GlobalNet()
	if err != nil {
		return err
	}

	fmt.Printf("%-22s %-10s %-10s\n", "model", "acc", "backdoor")
	for _, row := range []struct {
		name string
		net  *goldfish.Network
	}{
		{"origin (poisoned)", origin},
		{"ours (unlearned)", ours},
		{"retrain from scratch", b1},
	} {
		fmt.Printf("%-22s %-10.3f %-10.3f\n", row.name,
			goldfish.Accuracy(row.net, test),
			goldfish.AttackSuccessRate(row.net, triggered, bd.TargetLabel))
	}

	div, err := goldfish.ModelDivergence(ours, b1, test)
	if err != nil {
		return err
	}
	tt, err := goldfish.ConfidenceTTest(ours, origin, test)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Printf("ours vs retrain-from-scratch: JSD %.3f, L2 %.3f (small = indistinguishable)\n", div.JSD, div.L2)
	fmt.Printf("ours vs origin t-test:        p = %.3f (small = prediction patterns differ)\n", tt.P)
	return nil
}
