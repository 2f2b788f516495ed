package bench

import (
	"context"
	"fmt"
	"math/rand"

	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/metrics"
	"goldfish/internal/model"
	"goldfish/internal/nn"
	"goldfish/internal/preset"
	"goldfish/internal/unlearn"
)

// defaultRates returns the deletion-rate sweep (percent). The paper sweeps
// {2,4,6,8,10,12}; reduced scales use a three-point subset to bound CPU
// time.
func defaultRates(scale data.Scale) []int {
	switch scale {
	case data.ScaleMedium, data.ScalePaper:
		return []int{2, 4, 6, 8, 10, 12}
	default:
		return []int{2, 6, 12}
	}
}

// archFor maps the paper's dataset→model pairing.
func archFor(dataset string) model.Arch { return preset.ArchFor(dataset) }

// setup bundles everything a backdoor-style experiment starts from.
type setup struct {
	opts    Options
	p       preset.Preset
	train   *data.Dataset
	test    *data.Dataset
	mcfg    model.Config
	lr      float64
	batch   int
	epochs  int
	rounds  int
	clients int
	rng     *rand.Rand
}

// newSetup generates data and resolves configurations for one dataset/arch
// pair.
func newSetup(dataset string, arch model.Arch, opts Options) (*setup, error) {
	opts = opts.withDefaults()
	p, err := preset.For(dataset, arch, opts.Scale, opts.Seed)
	if err != nil {
		return nil, err
	}
	if opts.Rounds > 0 {
		p.Rounds = opts.Rounds
	}
	train, test, err := p.Generate()
	if err != nil {
		return nil, err
	}
	return &setup{
		opts:    opts,
		p:       p,
		train:   train,
		test:    test,
		mcfg:    p.Model,
		lr:      p.LR,
		batch:   p.Batch,
		epochs:  p.Epochs,
		rounds:  p.Rounds,
		clients: p.Clients,
		rng:     rand.New(rand.NewSource(opts.Seed * 31337)),
	}, nil
}

// clientConfig returns the Goldfish client configuration for this setup.
func (s *setup) clientConfig() core.Config { return s.p.ClientConfig() }

// partitionIID splits the training data across the setup's clients.
func (s *setup) partitionIID() ([]*data.Dataset, error) {
	return data.PartitionIID(s.train, s.clients, s.rng)
}

// runStrategy drives one registered unlearning strategy — Goldfish or a
// baseline — through the experiment every comparison here shares: train
// s.rounds rounds on parts, delete rows of client 0, run s.rounds more with
// onRound (may be nil) observing each post-deletion round. It returns the
// global state before the deletion and at the end.
func (s *setup) runStrategy(ctx context.Context, name string, cfg core.Config, parts []*data.Dataset,
	rows []int, onRound func(unlearn.RoundStats)) (before, after []float64, err error) {
	strategy, err := unlearn.New(name)
	if err != nil {
		return nil, nil, err
	}
	f, err := unlearn.NewFederation(unlearn.Config{Client: cfg, Unlearner: strategy}, parts)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Run(ctx, s.rounds, nil); err != nil {
		return nil, nil, err
	}
	before = f.Global()
	if err := f.RequestDeletion(0, rows); err != nil {
		return nil, nil, err
	}
	if err := f.Run(ctx, s.rounds, onRound); err != nil {
		return nil, nil, err
	}
	return before, f.Global(), nil
}

// evalNet loads a state vector into a fresh network of this setup's
// architecture.
func (s *setup) evalNet(state []float64) (*nn.Network, error) {
	net, err := model.Build(s.mcfg)
	if err != nil {
		return nil, err
	}
	if err := net.SetStateVector(state); err != nil {
		return nil, fmt.Errorf("bench: loading state: %w", err)
	}
	return net, nil
}

// accuracy evaluates a state vector on the test set.
func (s *setup) accuracy(state []float64) (float64, error) {
	net, err := s.evalNet(state)
	if err != nil {
		return 0, err
	}
	return metrics.Accuracy(net, s.test, 0), nil
}

// asr evaluates the backdoor attack success rate of a state vector.
func (s *setup) asr(state []float64, triggered *data.Dataset, target int) (float64, error) {
	net, err := s.evalNet(state)
	if err != nil {
		return 0, err
	}
	return metrics.AttackSuccessRate(net, triggered, target, 0), nil
}

// pct formats a fraction as a percentage with two decimals, matching the
// paper's tables.
func pct(v float64) string { return fmt.Sprintf("%.2f", v*100) }
