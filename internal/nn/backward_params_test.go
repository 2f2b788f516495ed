package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"goldfish/internal/tensor"
)

// wantSameGrads runs two consecutive batches through full (Backward) and a
// clone of it (BackwardParams) without ZeroGrads in between, and requires
// every Param.G to agree bit for bit after each.
func wantSameGrads(t *testing.T, full *Network, batch, inC, hw int, rng *rand.Rand) {
	t.Helper()
	paramsOnly := full.Clone()
	for step, n := range []int{batch, batch/2 + 1} {
		x := tensor.New(n, inC, hw, hw).RandNormal(rng, 0, 1)
		dout := tensor.New(full.Forward(x, true).Shape()...).RandNormal(rng, 0, 1)
		paramsOnly.Forward(x, true)
		if dx := full.Backward(dout); dx.Size() != x.Size() {
			t.Fatalf("batch %d: Backward returned %d input-gradient values, want %d", step, dx.Size(), x.Size())
		}
		paramsOnly.BackwardParams(dout)
		for i, p := range full.Params() {
			got := paramsOnly.Params()[i]
			wantSameBits(t, fmt.Sprintf("batch %d param %d (%s) gradient", step, i, p.Name), got.G.Data(), p.G.Data())
		}
	}
}

// TestBackwardParamsMatchesBackwardBitwise: the params-only backward pass
// leaves every gradient exactly as the full one does, on the three preset
// networks (LeNet-5, modified LeNet-5, ResNet stem + projecting Residual) and
// on a network whose first parameters sit in a Dense below a Flatten.
func TestBackwardParamsMatchesBackwardBitwise(t *testing.T) {
	for _, c := range convStepCases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			wantSameGrads(t, c.build(rng), min(c.batch, 12), c.inC, c.hw, rng)
		})
	}
	t.Run("flatten-dense-relu-dense", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		net := NewNetwork(NewFlatten(), NewDense(2*5*5, 7, rng), NewReLU(), NewDense(7, 3, rng))
		wantSameGrads(t, net, 6, 2, 5, rng)
	})
}

// TestBackwardParamsLeavesNestedNetworksWhole is the hazard of skipping by
// position: Residual trains its main and skip paths through Network.Backward
// and sums the gradients they return, so the first convolution of an inner
// network — layer 0 of that network — must still produce its full-resolution
// input gradient under BackwardParams, both when the block is the model's
// first layer and when a stem convolution sits beneath it.
func TestBackwardParamsLeavesNestedNetworksWhole(t *testing.T) {
	// wantInnerDx runs one params-only step from released scratch and
	// requires both inner first convolutions of block to have produced an
	// input gradient of perSample values per sample.
	wantInnerDx := func(t *testing.T, net *Network, block *Residual, perSample int, rng *rand.Rand) {
		t.Helper()
		x := tensor.New(4, 3, 8, 8).RandNormal(rng, 0, 1)
		net.ReleaseActivations()
		net.BackwardParams(tensor.New(net.Forward(x, true).Shape()...).Fill(1))
		for _, path := range []*Network{block.main, block.skip} {
			if c := path.Layers()[0].(*Conv2D); tensorSize(c.dx) != 4*perSample {
				t.Errorf("an inner first convolution holds %d input-gradient values, want %d", tensorSize(c.dx), 4*perSample)
			}
		}
	}
	t.Run("residual-first", func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		block := NewResidual(3, 4, 2, rng)
		net := NewNetwork(block, NewGlobalAvgPool2D(), NewDense(4, 5, rng))
		wantSameGrads(t, net, 6, 3, 8, rng)
		wantInnerDx(t, net, block, 3*8*8, rng)
	})
	t.Run("stem-under-residual", func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		stem, block := NewConv2D(3, 4, 3, 1, 1, rng), NewResidual(4, 8, 2, rng)
		net := NewNetwork(stem, NewBatchNorm2D(4), NewReLU(), block, NewGlobalAvgPool2D(), NewDense(8, 5, rng))
		wantSameGrads(t, net, 6, 3, 8, rng)
		wantInnerDx(t, net, block, 4*8*8, rng)
		if stem.dx != nil || stem.dcols != nil {
			t.Error("the stem convolution computed an input gradient nobody reads")
		}
		if stem.w.G.L2Norm() == 0 {
			t.Error("the stem's weight gradient is zero: no gradient reached it through the block")
		}
	})
}
