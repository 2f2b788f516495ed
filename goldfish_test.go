package goldfish_test

import (
	"context"
	"math/rand"
	"testing"

	"goldfish"
)

// TestFacadeQuickstart runs the README quick-start flow end to end through
// the public API: train → backdoor present → delete → backdoor gone.
func TestFacadeQuickstart(t *testing.T) {
	p, err := goldfish.NewPreset("mnist", goldfish.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	parts, err := goldfish.PartitionIID(train, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	bd := goldfish.DefaultBackdoor()
	poisoned, err := bd.Poison(parts[0], 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	triggered, err := bd.TriggerCopy(test)
	if err != nil {
		t.Fatal(err)
	}

	fedr, err := goldfish.New(
		goldfish.WithPreset(p),
		goldfish.WithPartitions(parts),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := fedr.Run(ctx, p.Rounds); err != nil {
		t.Fatal(err)
	}
	net, err := fedr.GlobalNet()
	if err != nil {
		t.Fatal(err)
	}
	accBefore := goldfish.Accuracy(net, test)
	asrBefore := goldfish.AttackSuccessRate(net, triggered, bd.TargetLabel)
	if accBefore < 0.4 {
		t.Fatalf("origin accuracy %g too low", accBefore)
	}
	if asrBefore < 0.4 {
		t.Fatalf("origin ASR %g too low for the demo to be meaningful", asrBefore)
	}

	if err := fedr.RequestDeletion(0, poisoned); err != nil {
		t.Fatal(err)
	}
	if err := fedr.Run(ctx, p.Rounds); err != nil {
		t.Fatal(err)
	}
	net, err = fedr.GlobalNet()
	if err != nil {
		t.Fatal(err)
	}
	asrAfter := goldfish.AttackSuccessRate(net, triggered, bd.TargetLabel)
	if asrAfter > asrBefore/2 {
		t.Errorf("unlearning left ASR at %g (was %g)", asrAfter, asrBefore)
	}
}

func TestFacadePresets(t *testing.T) {
	for _, name := range []string{"mnist", "fmnist", "cifar10", "cifar100"} {
		p, err := goldfish.NewPreset(name, goldfish.ScaleTiny, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: invalid preset: %v", name, err)
		}
		if p.ClientConfig().Validate() != nil {
			t.Errorf("%s: invalid client config", name)
		}
	}
	if _, err := goldfish.NewPreset("bogus", goldfish.ScaleTiny, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
	// Architecture override (Fig. 4d pairing).
	p, err := goldfish.NewPresetWithArch("cifar10", goldfish.ArchResNet32, goldfish.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Model.Arch != goldfish.ArchResNet32 {
		t.Errorf("arch override ignored: %s", p.Model.Arch)
	}
}

func TestFacadeModelAndMetrics(t *testing.T) {
	net, err := goldfish.BuildModel(goldfish.ModelConfig{
		Arch: goldfish.ArchMLP, InC: 1, InH: 6, InW: 6, Classes: 3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := goldfish.NewPreset("mnist", goldfish.ScaleTiny, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, test, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Self-divergence is zero; self-t-test is p=1.
	teach, err := goldfish.BuildModel(p.Model)
	if err != nil {
		t.Fatal(err)
	}
	div, err := goldfish.ModelDivergence(teach, teach, test)
	if err != nil {
		t.Fatal(err)
	}
	if div.JSD > 1e-10 {
		t.Errorf("self JSD = %g", div.JSD)
	}
	tt, err := goldfish.ConfidenceTTest(teach, teach, test)
	if err != nil {
		t.Fatal(err)
	}
	if tt.P != 1 {
		t.Errorf("self t-test p = %g, want 1", tt.P)
	}
	_ = net
}

func TestFacadeDefaults(t *testing.T) {
	cfg := goldfish.DefaultConfig(goldfish.ModelConfig{
		Arch: goldfish.ArchMLP, InC: 1, InH: 6, InW: 6, Classes: 3, Seed: 1,
	})
	if err := cfg.Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
	if cfg.Opt.LR != 0.001 || cfg.BatchSize != 100 {
		t.Errorf("DefaultConfig should carry the paper's hyperparameters, got %+v", cfg.Opt)
	}
	l := goldfish.DefaultLoss()
	if err := l.Validate(); err != nil {
		t.Errorf("DefaultLoss invalid: %v", err)
	}
	if l.MuC != 0.25 || l.MuD != 1.0 || l.Temp != 3 {
		t.Errorf("DefaultLoss = %+v, want paper defaults", l)
	}
}

func TestFacadePartitionHeterogeneous(t *testing.T) {
	p, err := goldfish.NewPreset("mnist", goldfish.ScaleTiny, 6)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := goldfish.PartitionHeterogeneous(train, 5, 0.2, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, part := range parts {
		total += part.Len()
	}
	if total != train.Len() {
		t.Errorf("partitions cover %d of %d samples", total, train.Len())
	}
}
