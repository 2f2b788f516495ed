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

// BenchmarkConv2DStep times one training step (ZeroGrads, Forward and the
// params-only backward pass the training loops run) of each case on one
// network and on five at once, the way a round's five clients share the
// kernel worker pool.
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
					networks[i].BackwardParams(douts[i])
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

// BenchmarkIm2col times the two data-movement loops of Conv2D alone, on as
// many samples as fit one column tile, at the presets' first-layer geometries
// (what convStepCases issue) and the stride-2 1×1 projection of a Residual,
// reporting MB/s of column tile moved.
func BenchmarkIm2col(b *testing.B) {
	for _, g := range []struct {
		name                           string
		batch, inC, hw, k, stride, pad int
	}{
		{"1x28x28-k5-p2", 100, 1, 28, 5, 1, 2},
		{"3x16x16-k5-p2", 32, 3, 16, 5, 1, 2},
		{"3x16x16-k3-p1", 32, 3, 16, 3, 1, 1},
		{"4x16x16-k1-s2", 32, 4, 16, 1, 2, 0},
	} {
		oh, patch := (g.hw+2*g.pad-g.k)/g.stride+1, g.inC*g.k*g.k
		n := min(g.batch, convTileFloats/(patch*oh*oh))
		x := tensor.New(n, g.inC, g.hw, g.hw).RandNormal(rand.New(rand.NewSource(2)), 0, 1)
		cols := tensor.New(patch, n*oh*oh)
		b.Run(g.name+"/im2col", func(b *testing.B) {
			b.SetBytes(int64(8 * cols.Size()))
			for it := 0; it < b.N; it++ {
				im2col(x, 0, n, g.k, g.stride, g.pad, oh, oh, cols)
			}
		})
		b.Run(g.name+"/col2im", func(b *testing.B) {
			b.SetBytes(int64(8 * cols.Size()))
			for it := 0; it < b.N; it++ {
				col2im(cols, 0, n, g.k, g.stride, g.pad, oh, oh, x)
			}
		})
	}
}
