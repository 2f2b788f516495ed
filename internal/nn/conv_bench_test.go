package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"goldfish/internal/tensor"
)

// The networks and batches the presets issue, which is what convTileFloats
// was chosen with: the paper's LeNet-5 at 28×28 and batch 100 (train-lenet),
// the modified LeNet-5 at width 0.5 on 3×16×16 and batch 32 (unlearn-sample),
// and the stem plus the first projecting block of the ScaleSmall ResNet
// (width 0.25, 3×16×16, batch 32: train-resnet-adaptive).
var convStepCases = []struct {
	name           string
	batch, inC, hw int
	build          func(rng *rand.Rand) *Network
}{
	{"lenet5-28x28-b100", 100, 1, 28, func(rng *rand.Rand) *Network {
		return NewNetwork(
			NewConv2D(1, 6, 5, 1, 2, rng), NewReLU(), NewMaxPool2D(2),
			NewConv2D(6, 16, 5, 1, 0, rng), NewReLU(), NewMaxPool2D(2),
			NewFlatten(), NewDense(400, 120, rng), NewReLU(), NewDense(120, 10, rng))
	}},
	{"lenet5mod-3x16x16-b32", 32, 3, 16, func(rng *rand.Rand) *Network {
		return NewNetwork(
			NewConv2D(3, 3, 5, 1, 2, rng), NewReLU(), NewMaxPool2D(2),
			NewConv2D(3, 8, 5, 1, 0, rng), NewReLU(), NewMaxPool2D(2),
			NewFlatten(), NewDense(32, 60, rng), NewReLU(), NewDense(60, 42, rng), NewReLU(), NewDense(42, 10, rng))
	}},
	{"resnet-stem-3x16x16-b32", 32, 3, 16, func(rng *rand.Rand) *Network {
		return NewNetwork(
			NewConv2D(3, 4, 3, 1, 1, rng), NewBatchNorm2D(4), NewReLU(),
			NewResidual(4, 8, 2, rng),
			NewGlobalAvgPool2D(), NewDense(8, 20, rng))
	}},
}

// BenchmarkConv2DStep times one training step (Forward, Backward, ZeroGrads)
// of each case on one network and on five at once, the way a round's five
// clients share the kernel worker pool.
func BenchmarkConv2DStep(b *testing.B) {
	for _, c := range convStepCases {
		for _, nets := range []int{1, 5} {
			b.Run(fmt.Sprintf("%s/nets=%d", c.name, nets), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				x := tensor.New(c.batch, c.inC, c.hw, c.hw).RandNormal(rng, 0, 1)
				networks := make([]*Network, nets)
				douts := make([]*tensor.Tensor, nets)
				step := func(i int) {
					networks[i].ZeroGrads()
					networks[i].Forward(x, true)
					networks[i].Backward(douts[i])
				}
				for i := range networks {
					networks[i] = c.build(rng)
					douts[i] = tensor.New(networks[i].Forward(x, true).Shape()...).RandNormal(rng, 0, 1)
					step(i) // sizes the scratch
				}
				b.ReportAllocs()
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					var wg sync.WaitGroup
					for i := 1; i < nets; i++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							step(i)
						}()
					}
					step(0)
					wg.Wait()
				}
			})
		}
	}
}
