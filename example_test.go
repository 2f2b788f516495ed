package goldfish_test

import (
	"context"
	"fmt"
	"math/rand"

	"goldfish"
)

// ExampleNewPreset shows how to resolve the paper's configuration for a
// dataset and inspect its dimensions.
func ExampleNewPreset() {
	p, err := goldfish.NewPreset("mnist", goldfish.ScaleTiny, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(p.Dataset, p.Spec.Classes, p.Clients)
	// Output: mnist 10 5
}

// ExampleNew trains a minimal two-client federation through the options API
// and evaluates the global model.
func ExampleNew() {
	e, err := goldfish.New(
		goldfish.WithDataset("mnist", goldfish.ScaleTiny),
		goldfish.WithClients(2),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := e.Run(context.Background(), 6); err != nil {
		fmt.Println(err)
		return
	}
	acc, _ := e.TestAccuracy(nil)
	fmt.Println(acc > 0.3)
	// Output: true
}

// ExampleEngine_RequestDeletion demonstrates the right-to-be-forgotten
// flow: after the deletion request, the next rounds unlearn the rows.
func ExampleEngine_RequestDeletion() {
	var unlearned bool
	e, _ := goldfish.New(
		goldfish.WithDataset("mnist", goldfish.ScaleTiny),
		goldfish.WithClients(2),
		goldfish.WithRoundHook(func(rs goldfish.RoundStats) { unlearned = unlearned || rs.UnlearningRound }),
	)
	ctx := context.Background()
	_ = e.Run(ctx, 2)

	if err := e.RequestDeletion(0, []int{0, 1, 2}); err != nil {
		fmt.Println(err)
		return
	}
	before := e.Partitions()[0].Len()
	_ = e.Run(ctx, 1)
	fmt.Println(unlearned, e.Client(0).NumActive() == before-3)
	// Output: true true
}

// ExampleWithUnlearner selects a baseline strategy by name.
func ExampleWithUnlearner() {
	e, err := goldfish.New(
		goldfish.WithDataset("mnist", goldfish.ScaleTiny),
		goldfish.WithClients(2),
		goldfish.WithUnlearner("retrain"),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(e.Strategy(), e.NumClients())
	// Output: retrain 2
}

// ExampleBackdoorConfig shows the trigger-patch attack used to probe
// unlearning validity.
func ExampleBackdoorConfig() {
	p, _ := goldfish.NewPreset("mnist", goldfish.ScaleTiny, 1)
	train, _, _ := p.Generate()

	bd := goldfish.DefaultBackdoor()
	rows, err := bd.Poison(train, 0.1, rand.New(rand.NewSource(1)))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(len(rows) == train.Len()/10, train.Y[rows[0]] == bd.TargetLabel)
	// Output: true true
}
