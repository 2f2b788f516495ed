package goldfish_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"goldfish"
)

// fastConfig returns a small MLP client configuration matched to the given
// preset's data dimensions — quick enough to run every strategy's
// round-trip in one test.
func fastConfig(p goldfish.Preset) goldfish.Config {
	cfg := goldfish.DefaultConfig(goldfish.ModelConfig{
		Arch:    goldfish.ArchMLP,
		InC:     p.Spec.Channels,
		InH:     p.Spec.Size,
		InW:     p.Spec.Size,
		Classes: p.Spec.Classes,
		Seed:    1,
	})
	cfg.Opt.LR = 0.1
	cfg.BatchSize = 32
	cfg.LocalEpochs = 3
	return cfg
}

func TestNewDefaults(t *testing.T) {
	e, err := goldfish.New(goldfish.WithDataset("mnist", goldfish.ScaleTiny))
	if err != nil {
		t.Fatal(err)
	}
	if e.Strategy() != "goldfish" {
		t.Errorf("default strategy = %q, want goldfish", e.Strategy())
	}
	if e.NumClients() != 5 {
		t.Errorf("NumClients = %d, want the preset default 5", e.NumClients())
	}
	if e.DefaultRounds() <= 0 {
		t.Errorf("DefaultRounds = %d, want the preset budget", e.DefaultRounds())
	}
	if e.TrainData() == nil || e.TestData() == nil {
		t.Error("preset-backed engine should expose generated train/test data")
	}
	if len(e.Partitions()) != 5 {
		t.Errorf("Partitions = %d, want 5", len(e.Partitions()))
	}
	if e.Round() != 0 {
		t.Errorf("fresh engine Round = %d", e.Round())
	}
	if e.Client(99) != nil {
		t.Error("out-of-range Client should be nil, not panic")
	}
}

func TestNewOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []goldfish.Option
		want string
	}{
		{"no data", nil, "no data"},
		{"nil option", []goldfish.Option{nil}, "nil option"},
		{"unknown dataset", []goldfish.Option{goldfish.WithDataset("bogus", goldfish.ScaleTiny)}, ""},
		{"empty dataset", []goldfish.Option{goldfish.WithDataset("", goldfish.ScaleTiny)}, "empty dataset"},
		{"unknown strategy", []goldfish.Option{
			goldfish.WithDataset("mnist", goldfish.ScaleTiny),
			goldfish.WithUnlearner("totally-bogus"),
		}, "unknown strategy"},
		{"bad clients", []goldfish.Option{
			goldfish.WithDataset("mnist", goldfish.ScaleTiny),
			goldfish.WithClients(0),
		}, "positive client count"},
		{"bad fraction", []goldfish.Option{
			goldfish.WithDataset("mnist", goldfish.ScaleTiny),
			goldfish.WithClientFraction(1.5),
		}, "out of [0,1]"},
		{"bad min clients", []goldfish.Option{
			goldfish.WithDataset("mnist", goldfish.ScaleTiny),
			goldfish.WithMinClients(0),
		}, "positive count"},
		{"min clients above count", []goldfish.Option{
			goldfish.WithDataset("mnist", goldfish.ScaleTiny),
			goldfish.WithClients(2),
			goldfish.WithMinClients(5),
		}, "exceeds client count"},
		{"negative timeout", []goldfish.Option{
			goldfish.WithDataset("mnist", goldfish.ScaleTiny),
			goldfish.WithRoundTimeout(-time.Second),
		}, "negative timeout"},
		{"nil aggregator", []goldfish.Option{
			goldfish.WithDataset("mnist", goldfish.ScaleTiny),
			goldfish.WithAggregator(nil),
		}, "nil aggregator"},
		{"partitions without config", []goldfish.Option{
			goldfish.WithPartitions(make([]*goldfish.Dataset, 2)),
		}, "WithClientConfig"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := goldfish.New(tc.opts...)
			if err == nil {
				t.Fatalf("%s: accepted", tc.name)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestUnknownStrategyErrorListsNames asserts that New's error for a
// misspelled strategy names every strategy, so the typo is self-diagnosing.
func TestUnknownStrategyErrorListsNames(t *testing.T) {
	_, err := goldfish.New(goldfish.WithDataset("mnist", goldfish.ScaleTiny), goldfish.WithUnlearner("retrian"))
	if err == nil {
		t.Fatal("New accepted an unknown strategy")
	}
	for _, name := range []string{"goldfish", "retrain", "fisher", "incompetent-teacher"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-strategy error %q does not list strategy name %q", err, name)
		}
	}
}

// TestAllStrategiesDeletionRoundTrip is the acceptance gate of the engine +
// strategy redesign: every unlearning method runs the same
// train → RequestDeletion → unlearn flow through goldfish.New, and the
// model's accuracy recovers.
func TestAllStrategiesDeletionRoundTrip(t *testing.T) {
	p, err := goldfish.NewPreset("mnist", goldfish.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"goldfish", "retrain", "fisher", "incompetent-teacher"} {
		t.Run(name, func(t *testing.T) {
			parts, err := goldfish.PartitionIID(train, 3, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatal(err)
			}
			cfg := fastConfig(p)
			if name == "fisher" {
				cfg.Opt.LR = 0.01 // preconditioned steps are larger; lower LR
			}
			var sawUnlearn bool
			e, err := goldfish.New(
				goldfish.WithPreset(p),
				goldfish.WithPartitions(parts),
				goldfish.WithClientConfig(cfg),
				goldfish.WithUnlearner(name),
				goldfish.WithRoundHook(func(rs goldfish.RoundStats) {
					sawUnlearn = sawUnlearn || rs.UnlearningRound
				}),
			)
			if err != nil {
				t.Fatal(err)
			}
			if e.Strategy() != name {
				t.Fatalf("Strategy() = %q, want %q", e.Strategy(), name)
			}
			ctx := context.Background()
			if err := e.Run(ctx, 6); err != nil {
				t.Fatal(err)
			}
			accBefore, err := e.TestAccuracy(nil)
			if err != nil {
				t.Fatal(err)
			}
			if accBefore < 0.35 {
				t.Fatalf("%s: trained accuracy %g too low for a meaningful round trip", name, accBefore)
			}
			// A row listed twice would be weighted double by the strategies
			// that train against a forget set; every strategy rejects the
			// request whole.
			if err := e.RequestDeletion(0, []int{5, 5}); err == nil {
				t.Errorf("%s: row listed twice in one request accepted", name)
			}
			if err := e.RequestDeletion(0, []int{0, 1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(ctx, 6); err != nil {
				t.Fatal(err)
			}
			if !sawUnlearn {
				t.Errorf("%s: deletion did not mark an unlearning round", name)
			}
			accAfter, err := e.TestAccuracy(nil)
			if err != nil {
				t.Fatal(err)
			}
			if accAfter < 0.3 {
				t.Errorf("%s: accuracy %g did not recover after unlearning (was %g)", name, accAfter, accBefore)
			}
		})
	}
}

// TestDeletionByOriginalRow is the wrong-row regression: under every
// strategy and through every public deletion entry point, a row
// index means the same original row before and after earlier deletions. At
// the parent of this change RequestDeletion did not record what it removed,
// so a later request by original row was shifted onto a different row of the
// retrain-family trainers' shrunken view — and silently accepted.
func TestDeletionByOriginalRow(t *testing.T) {
	p, err := goldfish.NewPreset("mnist", goldfish.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range []string{"fisher", "goldfish", "incompetent-teacher", "retrain"} {
		t.Run(name, func(t *testing.T) {
			parts, err := goldfish.PartitionIID(train, 3, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatal(err)
			}
			e, err := goldfish.New(
				goldfish.WithPreset(p),
				goldfish.WithPartitions(parts),
				goldfish.WithClientConfig(fastConfig(p)),
				goldfish.WithUnlearner(name),
			)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(ctx, 1); err != nil {
				t.Fatal(err)
			}
			gone := map[int]bool{}
			checkRemaining := func(when string) {
				t.Helper()
				rem := e.RemainingRows(0)
				if len(rem) != parts[0].Len()-len(gone) {
					t.Fatalf("%s: RemainingRows(0) has %d rows, want %d", when, len(rem), parts[0].Len()-len(gone))
				}
				for _, r := range rem {
					if gone[r] {
						t.Fatalf("%s: RemainingRows(0) still lists deleted row %d", when, r)
					}
				}
			}

			if err := e.RequestDeletion(0, []int{0, 1, 2}); err != nil {
				t.Fatal(err)
			}
			gone[0], gone[1], gone[2] = true, true, true
			checkRemaining("after deleting rows 0-2")

			// Row 1 is gone; no entry point may take it for another row.
			if err := e.RequestDeletion(0, []int{1}); err == nil {
				t.Error("RequestDeletion deleted row 1 a second time")
			}
			if err := e.RequestSampleDeletion(0, []int{1}); err == nil {
				t.Error("RequestSampleDeletion deleted row 1 a second time")
			}
			svc, err := e.NewDeletionService(goldfish.DeletionServiceConfig{})
			if err != nil {
				t.Fatal(err)
			}
			ticket, err := svc.Enqueue(goldfish.DeletionRequest{Kind: goldfish.DeleteSample, Client: 0, Rows: []int{1}})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(ctx, 1); err != nil {
				t.Fatal(err)
			}
			if got, ok := svc.Lookup(ticket.ID); !ok || got.Status != "failed" {
				t.Errorf("service ticket for deleted row 1 = %+v, want status failed", got)
			}
			checkRemaining("after the rejected repeats")

			if err := e.RequestDeletion(0, []int{10}); err != nil {
				t.Fatalf("deleting original row 10 after rows 0-2: %v", err)
			}
			gone[10] = true
			checkRemaining("after deleting row 10")

			// A class deletion removes the rest of row 0's class and only that.
			class := parts[0].Y[0]
			byClient, err := e.RequestClassDeletion(class)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range byClient[0] {
				if gone[r] {
					t.Errorf("class deletion returned already-deleted row %d", r)
				}
				if parts[0].Y[r] != class {
					t.Errorf("class deletion returned row %d of class %d, want %d", r, parts[0].Y[r], class)
				}
				gone[r] = true
			}
			checkRemaining("after the class deletion")
			if err := e.Run(ctx, 1); err != nil {
				t.Fatalf("round after the deletions: %v", err)
			}
		})
	}
}

// TestEngineClientFraction checks client sampling through the public API.
func TestEngineClientFraction(t *testing.T) {
	var perRound []int
	e, err := goldfish.New(
		goldfish.WithDataset("mnist", goldfish.ScaleTiny),
		goldfish.WithClients(4),
		goldfish.WithClientFraction(0.5),
		goldfish.WithSampleSeed(3),
		goldfish.WithRoundHook(func(rs goldfish.RoundStats) { perRound = append(perRound, len(rs.Updates)) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	for r, n := range perRound {
		if n != 2 {
			t.Errorf("round %d aggregated %d updates, want 2 (fraction 0.5 of 4)", r, n)
		}
	}
}
