// Membership: dynamic federation membership (the paper's §V outlook) plus a
// membership-inference check. A client joins mid-training, another leaves
// with full unlearning of its contribution, and the same sequence runs twice:
// under Goldfish and under the retrain baseline, which retrains from scratch
// without the departed data. The confidence gap on that data is only
// meaningful next to retrain's at the same round — a clean model can sit far
// from 0 — so both are printed side by side.
//
// Run with:
//
//	go run ./examples/membership
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
		fmt.Fprintf(os.Stderr, "membership: %v\n", err)
		os.Exit(1)
	}
}

// stage is the global model's test accuracy and backdoor success rate after
// one step of the sequence.
type stage struct {
	name     string
	clients  int
	acc, asr float64
}

func run() error {
	ctx := context.Background()
	p, err := goldfish.NewPreset("mnist", goldfish.ScaleTiny, 4)
	if err != nil {
		return err
	}
	train, test, err := p.Generate()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(4))
	parts, err := goldfish.PartitionIID(train, 4, rng)
	if err != nil {
		return err
	}

	// Client 2's data is made distinctive (a backdoor) so its departure is
	// observable.
	bd := goldfish.DefaultBackdoor()
	if _, err := bd.Poison(parts[2], 0.4, rng); err != nil {
		return err
	}
	triggered, err := bd.TriggerCopy(test)
	if err != nil {
		return err
	}

	gf, gfGap, err := sequence(ctx, p, parts, test, triggered, bd, "goldfish")
	if err != nil {
		return err
	}
	rt, rtGap, err := sequence(ctx, p, parts, test, triggered, bd, "retrain")
	if err != nil {
		return err
	}

	const row = "%-34s %7s  %-13s  %s\n"
	fmt.Printf(row, "", "", "goldfish", "retrain")
	fmt.Printf(row, "stage", "clients", "acc  backdoor", "acc  backdoor")
	for i := range gf {
		fmt.Printf(row, gf[i].name, fmt.Sprint(gf[i].clients),
			fmt.Sprintf("%.2f %.2f", gf[i].acc, gf[i].asr), fmt.Sprintf("%.2f %.2f", rt[i].acc, rt[i].asr))
	}
	fmt.Printf("\nmembership-inference gap on departed data (compare with retrain at the same round):\n")
	fmt.Printf("  goldfish %+.4f   retrain %+.4f\n", gfGap, rtGap)
	return nil
}

// sequence trains three clients, lets a fourth join, then removes client 2
// with unlearning, under the named strategy. It returns the model after each
// step and the final model's confidence gap on the departed client's data.
func sequence(ctx context.Context, p goldfish.Preset, parts []*goldfish.Dataset,
	test, triggered *goldfish.Dataset, bd goldfish.BackdoorConfig, strategy string) ([]stage, float64, error) {

	fedr, err := goldfish.New(
		goldfish.WithPreset(p),
		goldfish.WithPartitions(parts[:3]),
		goldfish.WithUnlearner(strategy),
	)
	if err != nil {
		return nil, 0, err
	}
	var stages []stage
	record := func(name string) error {
		net, err := fedr.GlobalNet()
		if err != nil {
			return err
		}
		stages = append(stages, stage{name, fedr.NumClients(),
			goldfish.Accuracy(net, test), goldfish.AttackSuccessRate(net, triggered, bd.TargetLabel)})
		return nil
	}

	if err := fedr.Run(ctx, 4); err != nil {
		return nil, 0, err
	}
	if err := record("after initial training"); err != nil {
		return nil, 0, err
	}

	// A new client joins with fresh data.
	if _, err := fedr.AddClient(parts[3]); err != nil {
		return nil, 0, err
	}
	if err := fedr.Run(ctx, 3); err != nil {
		return nil, 0, err
	}
	if err := record("after client 3 joined"); err != nil {
		return nil, 0, err
	}

	// Client 2 (the poisoned one, at index 2) leaves WITH unlearning: its
	// data's influence — including its backdoor — is actively forgotten.
	if err := fedr.RemoveClient(2, true); err != nil {
		return nil, 0, err
	}
	if err := fedr.Run(ctx, 6); err != nil {
		return nil, 0, err
	}
	if err := record("after client 2 left (unlearned)"); err != nil {
		return nil, 0, err
	}

	net, err := fedr.GlobalNet()
	if err != nil {
		return nil, 0, err
	}
	return stages, goldfish.MembershipGap(net, parts[2], test), nil
}
