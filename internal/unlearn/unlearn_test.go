package unlearn

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/fed"
	"goldfish/internal/loss"
	"goldfish/internal/metrics"
	"goldfish/internal/model"
	"goldfish/internal/optim"
)

// testConfig returns a fast configuration for tiny synthetic data.
func testConfig(classes int) core.Config {
	return core.Config{
		Model:       model.Config{Arch: model.ArchMLP, InC: 1, InH: 12, InW: 12, Classes: classes, Seed: 1},
		Loss:        loss.NewGoldfish(),
		Opt:         optim.SGDConfig{LR: 0.1, Momentum: 0.9, ClipNorm: 5},
		LocalEpochs: 3,
		BatchSize:   32,
		TempAlpha:   1,
		Seed:        1,
	}
}

func tinyMNIST(t *testing.T) (train, test *data.Dataset) {
	t.Helper()
	spec, err := data.SpecMNIST(data.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err = data.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

// strategyNames lists every strategy name, in table order.
func strategyNames() []string {
	out := make([]string, len(strategies))
	for i, s := range strategies {
		out[i] = s.name
	}
	return out
}

func TestFederationTrainsToUsefulAccuracy(t *testing.T) {
	train, test := tinyMNIST(t)
	rng := rand.New(rand.NewSource(1))
	parts, err := data.PartitionIID(train, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFederation(Config{Client: testConfig(10)}, parts)
	if err != nil {
		t.Fatal(err)
	}
	var rounds int
	if err := f.Run(context.Background(), 10, func(rs RoundStats) { rounds++ }); err != nil {
		t.Fatal(err)
	}
	if rounds != 10 || f.Round() != 10 {
		t.Errorf("rounds = %d / Round() = %d, want 10", rounds, f.Round())
	}
	acc, err := f.TestAccuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.4 {
		t.Errorf("federated accuracy %g too low after 10 rounds (chance = 0.1)", acc)
	}
}

func TestUnlearningRemovesBackdoor(t *testing.T) {
	train, test := tinyMNIST(t)
	rng := rand.New(rand.NewSource(2))
	parts, err := data.PartitionIID(train, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Poison 30% of client 0's data.
	bd := data.DefaultBackdoor()
	poisoned, err := bd.Poison(parts[0], 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	triggered, err := bd.TriggerCopy(test)
	if err != nil {
		t.Fatal(err)
	}

	f, err := NewFederation(Config{Client: testConfig(10)}, parts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Run(ctx, 10, nil); err != nil {
		t.Fatal(err)
	}
	net, err := f.GlobalNet()
	if err != nil {
		t.Fatal(err)
	}
	asrBefore := metrics.AttackSuccessRate(net, triggered, bd.TargetLabel, 0)
	if asrBefore < 0.4 {
		t.Fatalf("backdoor did not take hold: ASR %g (need a contaminated origin model)", asrBefore)
	}

	// Unlearn the poisoned rows and keep training.
	if err := f.RequestDeletion(0, poisoned); err != nil {
		t.Fatal(err)
	}
	var sawUnlearningRound bool
	if err := f.Run(ctx, 8, func(rs RoundStats) {
		if rs.UnlearningRound {
			sawUnlearningRound = true
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !sawUnlearningRound {
		t.Error("deletion did not trigger an unlearning round")
	}

	net, err = f.GlobalNet()
	if err != nil {
		t.Fatal(err)
	}
	asrAfter := metrics.AttackSuccessRate(net, triggered, bd.TargetLabel, 0)
	accAfter, err := f.TestAccuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if asrAfter > asrBefore/2 {
		t.Errorf("unlearning left ASR at %g (was %g)", asrAfter, asrBefore)
	}
	if accAfter < 0.35 {
		t.Errorf("unlearning destroyed utility: accuracy %g", accAfter)
	}
}

func TestEarlyTerminationCutsEpochs(t *testing.T) {
	train, _ := tinyMNIST(t)
	rng := rand.New(rand.NewSource(3))
	parts, err := data.PartitionIID(train, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(10)
	cfg.LocalEpochs = 8
	cfg.EarlyDelta = 1000 // absurdly lax: stop after the first epoch
	f, err := NewFederation(Config{Client: cfg}, parts)
	if err != nil {
		t.Fatal(err)
	}
	// Round 0 has no previous global (no stopper); round 1 should stop
	// after one epoch.
	if err := f.Run(context.Background(), 2, nil); err != nil {
		t.Fatal(err)
	}
	if got := f.Client(0).LastEpochs(); got != 1 {
		t.Errorf("LastEpochs = %d, want 1 with lax delta", got)
	}

	// Tight delta: all epochs run.
	cfg.EarlyDelta = 0
	f2, err := NewFederation(Config{Client: cfg}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Run(context.Background(), 2, nil); err != nil {
		t.Fatal(err)
	}
	if got := f2.Client(0).LastEpochs(); got != cfg.LocalEpochs {
		t.Errorf("LastEpochs = %d, want %d with disabled early termination", got, cfg.LocalEpochs)
	}
}

func TestFederationAdaptiveWeights(t *testing.T) {
	train, test := tinyMNIST(t)
	rng := rand.New(rand.NewSource(4))
	parts, err := data.PartitionHeterogeneous(train, 3, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFederation(Config{
		Client:     testConfig(10),
		Aggregator: fed.AdaptiveWeight{},
		ServerTest: test,
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	var gotMSE bool
	if err := f.Run(context.Background(), 3, func(rs RoundStats) {
		for _, u := range rs.Updates {
			if u.MSE > 0 {
				gotMSE = true
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !gotMSE {
		t.Error("adaptive aggregation ran without MSE scores")
	}
}

func TestFederationValidation(t *testing.T) {
	train, _ := tinyMNIST(t)
	parts, err := data.PartitionIID(train, 2, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFederation(Config{Client: testConfig(10)}, nil); err == nil {
		t.Error("no partitions accepted")
	}
	bad := testConfig(10)
	bad.LocalEpochs = 0
	if _, err := NewFederation(Config{Client: bad}, parts); err == nil {
		t.Error("invalid client config accepted")
	}
	if _, err := NewFederation(Config{Client: testConfig(10), MinClients: 5}, parts); err == nil {
		t.Error("MinClients above client count accepted")
	}
	f, err := NewFederation(Config{Client: testConfig(10)}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RequestDeletion(7, []int{0}); err == nil {
		t.Error("deletion for unknown client accepted")
	}
	if f.Client(7) != nil {
		t.Error("out-of-range Client(i) should be nil, not panic")
	}
	if f.Client(-1) != nil {
		t.Error("negative Client(i) should be nil, not panic")
	}
}

func TestFederationCancellation(t *testing.T) {
	train, _ := tinyMNIST(t)
	parts, err := data.PartitionIID(train, 2, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFederation(Config{Client: testConfig(10)}, parts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Run(ctx, 5, nil); err == nil {
		t.Error("cancelled run should fail")
	}
}

// TestRoundStatsGlobalIsACopy guards the old aliasing bug: a callback that
// mutates RoundStats.Global must not corrupt federation state.
func TestRoundStatsGlobalIsACopy(t *testing.T) {
	train, test := tinyMNIST(t)
	parts, err := data.PartitionIID(train, 2, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFederation(Config{Client: testConfig(10)}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(context.Background(), 3, func(rs RoundStats) {
		for i := range rs.Global {
			rs.Global[i] = 1e9 // vandalize the callback's view
		}
	}); err != nil {
		t.Fatal(err)
	}
	acc, err := f.TestAccuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.3 {
		t.Errorf("mutating RoundStats.Global corrupted the federation: accuracy %g", acc)
	}
}

func TestFederationAddClient(t *testing.T) {
	train, test := tinyMNIST(t)
	rng := rand.New(rand.NewSource(20))
	parts, err := data.PartitionIID(train, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFederation(Config{Client: testConfig(10)}, parts[:2])
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Run(ctx, 2, nil); err != nil {
		t.Fatal(err)
	}
	id, err := f.AddClient(parts[2])
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 || f.NumClients() != 3 {
		t.Fatalf("AddClient id=%d clients=%d, want 2/3", id, f.NumClients())
	}
	var updates int
	if err := f.Run(ctx, 1, func(rs RoundStats) { updates = len(rs.Updates) }); err != nil {
		t.Fatal(err)
	}
	if updates != 3 {
		t.Errorf("round after join aggregated %d updates, want 3", updates)
	}
	if acc, err := f.TestAccuracy(test); err != nil || acc < 0.2 {
		t.Errorf("accuracy %g, err %v", acc, err)
	}
}

func TestFederationRemoveClient(t *testing.T) {
	train, _ := tinyMNIST(t)
	rng := rand.New(rand.NewSource(21))
	parts, err := data.PartitionIID(train, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFederation(Config{Client: testConfig(10)}, parts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Run(ctx, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveClient(5, false); err == nil {
		t.Error("out-of-range removal accepted")
	}
	if err := f.RemoveClient(1, true); err != nil {
		t.Fatal(err)
	}
	if f.NumClients() != 2 {
		t.Fatalf("NumClients = %d, want 2", f.NumClients())
	}
	var sawUnlearn bool
	var updates int
	if err := f.Run(ctx, 1, func(rs RoundStats) {
		sawUnlearn = rs.UnlearningRound
		updates = len(rs.Updates)
	}); err != nil {
		t.Fatal(err)
	}
	if !sawUnlearn {
		t.Error("unlearning removal should trigger a reinitialized round")
	}
	if updates != 2 {
		t.Errorf("aggregated %d updates, want 2", updates)
	}
	// Removing down to the last client must fail.
	if err := f.RemoveClient(0, false); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveClient(0, false); err == nil {
		t.Error("removing the last client accepted")
	}
}

// TestBaselineStrategiesRoundTrip drives every baseline through
// the same federation API as the Goldfish procedure: train, delete, keep
// training, and end with a usable model over the remaining data.
func TestBaselineStrategiesRoundTrip(t *testing.T) {
	train, test := tinyMNIST(t)
	for _, name := range []string{"retrain", "fisher", "incompetent-teacher"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(30))
			parts, err := data.PartitionIID(train, 3, rng)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(10)
			if name == "fisher" {
				cfg.Opt.LR = 0.01 // preconditioned steps are larger; lower LR
			}
			f, err := NewFederation(Config{Client: cfg, Strategy: name}, parts)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if err := f.Run(ctx, 6, nil); err != nil {
				t.Fatal(err)
			}
			if err := f.RequestDeletion(0, []int{0, 1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
			var sawUnlearn bool
			if err := f.Run(ctx, 6, func(rs RoundStats) { sawUnlearn = sawUnlearn || rs.UnlearningRound }); err != nil {
				t.Fatal(err)
			}
			if !sawUnlearn {
				t.Error("deletion did not mark an unlearning round")
			}
			acc, err := f.TestAccuracy(test)
			if err != nil {
				t.Fatal(err)
			}
			if acc < 0.3 {
				t.Errorf("%s: accuracy %g did not recover after unlearning", name, acc)
			}
			// Every built-in strategy's participants are core.Clients.
			if f.Client(0) == nil {
				t.Errorf("%s: Client(0) is nil", name)
			}
			// Retrain-family baselines support dynamic membership (client-
			// level unlearning retrains without the departed client); the
			// incompetent teacher does not.
			if name == "incompetent-teacher" {
				if _, err := f.AddClient(parts[0]); err == nil {
					t.Errorf("%s: AddClient should be unsupported", name)
				}
			} else {
				id, err := f.AddClient(parts[0].Clone())
				if err != nil {
					t.Fatalf("%s: AddClient: %v", name, err)
				}
				if id != 3 {
					t.Errorf("%s: AddClient id = %d, want 3", name, id)
				}
				if f.NumClients() != 4 {
					t.Errorf("%s: NumClients = %d, want 4", name, f.NumClients())
				}
				if err := f.RemoveClient(3, true); err != nil {
					t.Fatalf("%s: RemoveClient: %v", name, err)
				}
				if err := f.Run(ctx, 1, nil); err != nil {
					t.Fatalf("%s: round after membership churn: %v", name, err)
				}
			}
		})
	}
}

// TestRequestDeletionByOriginalRow exercises original-row addressing
// on a baseline and on Goldfish: after five rows are gone, a second request
// against the highest original indices must still land (a trainer indexing
// its shrunken view would call them out of range), and rows already removed
// stay rejected.
func TestRequestDeletionByOriginalRow(t *testing.T) {
	train, _ := tinyMNIST(t)
	ctx := context.Background()
	for _, name := range []string{"retrain", "goldfish"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			parts, err := data.PartitionIID(train, 3, rng)
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFederation(Config{Client: testConfig(10), Strategy: name}, parts)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Run(ctx, 1, nil); err != nil {
				t.Fatal(err)
			}
			last := parts[0].Len() - 1
			if err := f.RequestDeletion(0, []int{0, 1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
			if err := f.RequestDeletion(0, []int{last, last - 1}); err != nil {
				t.Fatalf("%s: second original-index request failed: %v", name, err)
			}
			// Double removal is rejected under both strategies.
			if err := f.RequestDeletion(0, []int{2}); err == nil {
				t.Errorf("%s: double removal accepted", name)
			}
			// Out-of-range originals are rejected.
			if err := f.RequestDeletion(0, []int{parts[0].Len()}); err == nil {
				t.Errorf("%s: out-of-range row accepted", name)
			}
			if err := f.RequestDeletion(9, []int{0}); err == nil {
				t.Errorf("%s: out-of-range client accepted", name)
			}
			if err := f.Run(ctx, 1, nil); err != nil {
				t.Fatalf("%s: round after deletions: %v", name, err)
			}
		})
	}
}

// TestRequestClassDeletion removes an entire class across all participants
// and verifies the federation's remaining-rows bookkeeping.
func TestRequestClassDeletion(t *testing.T) {
	train, _ := tinyMNIST(t)
	rng := rand.New(rand.NewSource(99))
	parts, err := data.PartitionIID(train, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFederation(Config{Client: testConfig(10)}, parts)
	if err != nil {
		t.Fatal(err)
	}
	const class = 4
	want := 0
	for i, p := range parts {
		n := len(p.RowsOfClass(class))
		want += n
		if got := len(f.RemainingRowsOfClass(i, class)); got != n {
			t.Fatalf("client %d: RemainingRowsOfClass = %d, want %d", i, got, n)
		}
	}
	removed, err := f.RequestClassDeletion(class)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for i, rows := range removed {
		got += len(rows)
		for _, r := range rows {
			if parts[i].Y[r] != class {
				t.Fatalf("client %d: removed row %d has label %d", i, r, parts[i].Y[r])
			}
		}
	}
	if got != want {
		t.Errorf("class deletion removed %d rows, want %d", got, want)
	}
	for i := range parts {
		if left := f.RemainingRowsOfClass(i, class); len(left) != 0 {
			t.Errorf("client %d still has %d rows of class %d", i, len(left), class)
		}
	}
	// The class is gone: a repeat request has nothing to remove.
	if _, err := f.RequestClassDeletion(class); err == nil {
		t.Error("second class deletion found rows to remove")
	}
	if _, err := f.RequestClassDeletion(-1); err == nil {
		t.Error("negative class accepted")
	}
	if _, err := f.RequestClassDeletion(10); err == nil {
		t.Error("out-of-range class accepted")
	}
	if err := f.Run(context.Background(), 1, nil); err != nil {
		t.Fatalf("round after class deletion: %v", err)
	}
}

// TestUnknownStrategyErrorListsNames asserts the lookup-failure error names
// every strategy, so a typo in a spec is self-diagnosing.
func TestUnknownStrategyErrorListsNames(t *testing.T) {
	parts := []*data.Dataset{{}}
	_, err := NewFederation(Config{Client: testConfig(10), Strategy: "no-such-strategy"}, parts)
	if err == nil {
		t.Fatal("NewFederation(unknown strategy) succeeded")
	}
	for _, name := range strategyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-strategy error %q does not list strategy name %q", err, name)
		}
	}
}
