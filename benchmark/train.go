package main

import (
	"context"
	"fmt"
	"math/rand"

	"goldfish"
)

// trainSpec is what distinguishes the two closed-loop training workloads.
type trainSpec struct {
	dataset  string
	scale    goldfish.Scale
	adaptive bool // heterogeneous partitions + AdaptiveWeight + server test set
	warm     int  // warm-up rounds, part of set-up
	rounds   int  // measured rounds at refSeconds
	// minAcc is the final test accuracy a full run must reach on every seed
	// the pipeline may pick, so it sits just under the lowest value a seed
	// sweep saw (README, "Output checks"), not at the 0.90 a typical seed
	// reaches: LeNet-5 at lr 0.001 is still climbing when the window ends.
	minAcc float64
}

// train-lenet is the paper's own model at the paper's kernel shapes
// (28×28 LeNet-5, batch 100): im2col + matmul in Conv2D/Dense do nearly all
// the work. train-resnet-adaptive puts BatchNorm, residual blocks, pooling,
// uneven clients (the slowest sets the round) and the server-side MSE
// scorer on the round path instead.
var trainSpecs = map[string]trainSpec{
	wlTrainLeNet:  {dataset: "mnist", scale: goldfish.ScalePaper, warm: 3, rounds: 15, minAcc: 0.55},
	wlTrainResNet: {dataset: "cifar100", scale: goldfish.ScaleSmall, adaptive: true, warm: 3, rounds: 10, minAcc: 0.90},
}

const trainClients = 5

// unevenShares are the clients' shares of the training rows on
// train-resnet-adaptive: the largest leads the second by a tenth of the rows.
// The slowest client sets the round, and on two cores what it costs is the
// stretch it trains alone. PartitionHeterogeneous(skew 0.3) puts that lead
// anywhere from 0 to 33 % of the rows depending on the seed, so round time
// would measure the draw instead of the code (and the pipeline compares runs
// of different seeds). The sizes are therefore fixed, and the seed decides
// only which rows each client holds.
var unevenShares = [trainClients]float64{0.30, 0.20, 0.18, 0.17, 0.15}

func unevenParts(train *goldfish.Dataset, rng *rand.Rand) []*goldfish.Dataset {
	perm := rng.Perm(train.Len())
	parts := make([]*goldfish.Dataset, trainClients)
	off := 0
	for i, share := range unevenShares {
		n := int(share * float64(train.Len()))
		if i == trainClients-1 {
			n = train.Len() - off
		}
		parts[i] = train.Subset(perm[off : off+n])
		off += n
	}
	return parts
}

func (b *bench) runTrain(ctx context.Context) error {
	spec := trainSpecs[b.opt.workload]
	p, err := b.preset(spec.dataset, spec.scale)
	if err != nil {
		return err
	}
	if spec.scale == goldfish.ScalePaper && !b.opt.quick {
		// Paper resolution and width, but a row count a CPU round can carry.
		p.Spec.Train, p.Spec.Test = 1000, 500
	}

	setup := b.rec.begin("harness/setup", 0, -1)
	train, test, err := b.generate(p, setup)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.opt.seed))
	parts, err := b.partition(setup, func() ([]*goldfish.Dataset, error) {
		if spec.adaptive {
			return unevenParts(train, rng), nil
		}
		return goldfish.PartitionIID(train, trainClients, rng)
	})
	if err != nil {
		return err
	}

	opts := []goldfish.Option{goldfish.WithPreset(p), goldfish.WithPartitions(parts), goldfish.WithUnlearner("goldfish")}
	var agg goldfish.Aggregator = goldfish.FedAvg{}
	if spec.adaptive {
		agg = goldfish.AdaptiveWeight{}
		opts = append(opts, goldfish.WithAggregator(agg), goldfish.WithServerTest(test))
	}
	f, err := newFedRun(p.Epochs, opts...)
	if err != nil {
		return err
	}
	if err := b.runRounds(ctx, f, b.pick(spec.warm, 1), nil, setup); err != nil {
		return err
	}
	b.rec.end(setup)
	b.markSetup()

	rounds := b.scaled(spec.rounds, 2, 2)
	if b.opt.trace {
		rounds = quarter(rounds)
	}
	var w window
	var mem memDelta
	mem.start()
	if err := b.runRounds(ctx, f, rounds, &w, 0); err != nil {
		return err
	}
	mem.stop()
	b.finishWindow(&w)

	if b.opt.trace {
		mem.report(b, rounds)
		var tw tracedWindow
		if err := b.runRounds(b.observe(ctx, &tw), f, rounds, &tw.window, 0); err != nil {
			return err
		}
		if err := b.reportFed(&tw, median(w.rounds)); err != nil {
			return err
		}
	}

	acc, err := f.e.TestAccuracy(test)
	if err != nil {
		return err
	}
	b.check("final_accuracy", acc >= b.floor(spec.minAcc), "%.3f, need >= %.2f", acc, b.floor(spec.minAcc))
	global := f.e.Global()
	b.rep.StateSHA256 = stateSHA256(global)

	if b.opt.trace {
		if err := b.replayLayers(ctx, replayInput{
			cfg: p.ClientConfig(), part: parts[0], test: test, clients: len(parts),
			agg: agg, state: global, scorer: spec.adaptive,
		}); err != nil {
			return fmt.Errorf("replaying layers: %w", err)
		}
	}
	return nil
}
