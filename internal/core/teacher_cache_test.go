package core_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/model"
	"goldfish/internal/nn"
	"goldfish/internal/optim"
	"goldfish/internal/preset"
	"goldfish/internal/tensor"
)

// TestTeacherCacheMatchesPerBatchForwardBitwise is the bitwise oracle of
// the round-start teacher pass, for every architecture the presets build:
// LeNet-5 (mnist), modified LeNet-5 (cifar10) and the BatchNorm ResNet
// (cifar100). Gathered in a shuffled batch order with a ragged last batch,
// the cached logits of the retain teacher over Dr and of B3's incompetent
// network over Df are the bits a per-batch evaluation-mode Forward gives,
// and the Eq. 7 reference is the per-batch mean hard loss summed as the
// reference always was. The oracle must also see an off-by-one gather.
func TestTeacherCacheMatchesPerBatchForwardBitwise(t *testing.T) {
	for _, dataset := range []string{"mnist", "cifar10", "cifar100"} {
		t.Run(dataset, func(t *testing.T) {
			p, err := preset.For(dataset, "", data.ScaleSmall, 1)
			if err != nil {
				t.Fatal(err)
			}
			p.Spec.Train, p.Spec.Test = 160, 10
			train, _, err := p.Generate()
			if err != nil {
				t.Fatal(err)
			}
			cfg := p.ClientConfig()
			build := func(seed int64) *nn.Network {
				mcfg := p.Model
				mcfg.Seed = seed
				net, err := model.Build(mcfg)
				if err != nil {
					t.Fatal(err)
				}
				return net
			}
			// One epoch of training moves the teacher off its initial
			// weights, and BatchNorm's running statistics off 0 and 1.
			teacher, incompetent := build(1), build(2)
			opt, err := optim.NewSGD(cfg.Opt)
			if err != nil {
				t.Fatal(err)
			}
			all := make([]int, train.Len())
			for i := range all {
				all[i] = i
			}
			plain := cfg.Loss
			plain.MuD = 0
			if _, err := core.TrainEpoch(context.Background(), teacher, nil, train, all, nil, plain, opt, p.Batch,
				rand.New(rand.NewSource(1))); err != nil {
				t.Fatal(err)
			}

			// Df is every seventh row, Dr the rest in order, as a client
			// keeps them; neither fills its last batch.
			var drIdx, dfIdx []int
			for i := range train.Len() {
				if i%7 == 0 {
					dfIdx = append(dfIdx, i)
				} else {
					drIdx = append(drIdx, i)
				}
			}
			if len(drIdx)%p.Batch == 0 || len(dfIdx)%p.Batch == 0 {
				t.Fatalf("|Dr| = %d and |Df| = %d must leave a ragged batch of %d", len(drIdx), len(dfIdx), p.Batch)
			}
			df := train.Subset(dfIdx)
			cached, cachedInc, ref, err := core.TeacherCaches(teacher, incompetent, train, drIdx, df, cfg.Loss.Hard, p.Batch)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(2))
			check := func(name string, cache *tensor.Tensor, net *nn.Network, ds *data.Dataset, n int, row func(int) int) {
				batches := data.BatchIndices(n, p.Batch, rng)
				for _, b := range batches {
					rows := make([]int, len(b))
					for i, j := range b {
						rows[i] = row(j)
					}
					want := net.Forward(tensor.SliceRows(ds.X, rows), false)
					if bad := bitDiffs(tensor.SliceRows(cache, b), want); bad > 0 {
						t.Errorf("%s: %d of %d cached logits differ from a per-batch forward", name, bad, want.Size())
					}
					// The mutation an off-by-one cache offset makes.
					shifted := make([]int, len(b))
					for i, j := range b {
						shifted[i] = (j + 1) % n
					}
					if bitDiffs(tensor.SliceRows(cache, shifted), want) == 0 {
						t.Errorf("%s: the oracle does not see rows gathered one off", name)
					}
				}
			}
			check("teacher over Dr", cached, teacher, train, len(drIdx), func(j int) int { return drIdx[j] })
			check("incompetent over Df", cachedInc, incompetent, df, df.Len(), func(j int) int { return j })

			// The Eq. 7 reference: batchSize rows at a time in order, each
			// batch's mean hard loss times its size, over |Dr|.
			var total float64
			for _, b := range data.BatchIndices(len(drIdx), p.Batch, nil) {
				rows := make([]int, len(b))
				for i, j := range b {
					rows[i] = drIdx[j]
				}
				l, _ := cfg.Loss.Hard.Compute(teacher.Forward(tensor.SliceRows(train.X, rows), false), train.LabelsFor(rows))
				total += l * float64(len(b))
			}
			if want := total / float64(len(drIdx)); math.Float64bits(ref) != math.Float64bits(want) {
				t.Errorf("Eq. 7 reference = %v, want %v bit for bit", ref, want)
			}
		})
	}
}

// bitDiffs counts the elements of got and want whose bits differ, or all of
// want's when the shapes differ.
func bitDiffs(got, want *tensor.Tensor) int {
	if !got.SameShape(want) {
		return want.Size()
	}
	n := 0
	for i, v := range want.Data() {
		if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
			n++
		}
	}
	return n
}
