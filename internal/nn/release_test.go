package nn

import (
	"math/rand"
	"testing"

	"goldfish/internal/tensor"
)

// testConvNet builds a network touching every layer kind with caches.
func testConvNet(rng *rand.Rand) *Network {
	return NewNetwork(
		NewConv2D(1, 4, 3, 1, 1, rng),
		NewBatchNorm2D(4),
		NewReLU(),
		NewMaxPool2D(2),
		NewResidual(4, 8, 2, rng),
		NewGlobalAvgPool2D(),
		NewFlatten(),
		NewDense(8, 3, rng),
	)
}

// batchState sums the batch-sized buffers a layer currently pins; the
// assertion helper for the idle-client memory guarantee.
func batchState(l Layer) int {
	switch v := l.(type) {
	case *Dense:
		return tensorSize(v.x) + tensorSize(v.fwdOut) + tensorSize(v.dw) + tensorSize(v.dx)
	case *ReLU:
		return len(v.mask) + tensorSize(v.out) + tensorSize(v.dx)
	case *Conv2D:
		return tensorSize(v.x) + tensorSize(v.cols) + tensorSize(v.prod) + tensorSize(v.out) +
			tensorSize(v.dprod) + tensorSize(v.dw) + tensorSize(v.dcols) + tensorSize(v.dx)
	case *BatchNorm2D:
		return tensorSize(v.xhat) + tensorSize(v.xmu) + tensorSize(v.out) + tensorSize(v.dx)
	case *MaxPool2D:
		return len(v.argmax) + tensorSize(v.out) + tensorSize(v.dx)
	case *GlobalAvgPool2D:
		return tensorSize(v.out) + tensorSize(v.dx)
	case *Residual:
		total := tensorSize(v.lastX) + batchState(v.act)
		for _, inner := range v.main.Layers() {
			total += batchState(inner)
		}
		if v.skip != nil {
			for _, inner := range v.skip.Layers() {
				total += batchState(inner)
			}
		}
		return total
	}
	return 0
}

func tensorSize(t *tensor.Tensor) int {
	if t == nil {
		return 0
	}
	return t.Size()
}

// TestReleaseActivationsDropsBatchState is the satellite regression: after a
// forward/backward pass a network caches activation-sized buffers, and
// ReleaseActivations must drop all of them (an idle federated client pins no
// batch memory between rounds).
func TestReleaseActivationsDropsBatchState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := testConvNet(rng)
	x := tensor.New(6, 1, 8, 8).RandNormal(rng, 0, 1)

	out := net.Forward(x, true)
	net.Backward(tensor.New(out.Shape()...).Fill(1))

	held := 0
	for _, l := range net.Layers() {
		held += batchState(l)
	}
	if held == 0 {
		t.Fatal("expected layers to hold batch-sized caches after forward/backward")
	}

	net.ReleaseActivations()
	for i, l := range net.Layers() {
		if s := batchState(l); s != 0 {
			t.Errorf("layer %d (%T) still pins %d batch-sized values after ReleaseActivations", i, l, s)
		}
	}
}

// TestConvScratchIndependentOfBatch is the memory bound of the tiled
// convolution: the column scratch and the products around it are sized by
// convTileFloats, not by the batch, at the paper's LeNet-5 conv1 shapes.
func TestConvScratchIndependentOfBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	scratch := func(batch int) int {
		c := NewConv2D(1, 6, 5, 1, 2, rng)
		x := tensor.New(batch, 1, 28, 28).RandNormal(rng, 0, 1)
		c.Backward(tensor.New(c.Forward(x, true).Shape()...).Fill(1))
		held := 0 // capacity: after a shorter last tile the tensors are shaped to it
		for _, s := range []*tensor.Tensor{c.cols, c.dcols, c.prod, c.dprod} {
			held += cap(s.Data())
		}
		return held
	}
	at100, at400 := scratch(100), scratch(400)
	if at100 != at400 {
		t.Errorf("conv scratch holds %d float64s at batch 100 and %d at batch 400; want it independent of the batch", at100, at400)
	}
	// cols and dcols are at most a tile each; prod and dprod are outC/patch
	// (6/25) of one.
	if limit := 3 * convTileFloats; at400 > limit {
		t.Errorf("conv scratch holds %d float64s at batch 400, want at most %d (3 tiles)", at400, limit)
	}
}

// TestParamsOnlyBackwardHoldsNoInputGradient: a first-layer convolution
// trained through BackwardParams never sizes dx or dcols — its batch state is
// smaller than under Backward by exactly those two — and the same holds for a
// first-layer Dense.
func TestParamsOnlyBackwardHoldsNoInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	x := tensor.New(6, 1, 8, 8).RandNormal(rng, 0, 1)
	full := NewNetwork(NewConv2D(1, 4, 3, 1, 1, rng), NewReLU(), NewFlatten(), NewDense(4*8*8, 3, rng))
	paramsOnly := full.Clone()
	dout := tensor.New(full.Forward(x, true).Shape()...).Fill(1)
	paramsOnly.Forward(x, true)
	full.Backward(dout)
	paramsOnly.BackwardParams(dout)

	withDx, without := full.Layers()[0].(*Conv2D), paramsOnly.Layers()[0].(*Conv2D)
	if without.dx != nil || without.dcols != nil {
		t.Errorf("params-only conv holds dx=%d dcols=%d values, want neither", tensorSize(without.dx), tensorSize(without.dcols))
	}
	if withDx.dx == nil || withDx.dcols == nil {
		t.Fatal("Backward no longer keeps dx and dcols on the convolution")
	}
	if got, want := batchState(without), batchState(withDx)-withDx.dx.Size()-withDx.dcols.Size(); got != want {
		t.Errorf("params-only conv pins %d batch-sized values, want %d (Backward's less dx and dcols)", got, want)
	}
	if d := paramsOnly.Layers()[3].(*Dense); d.dx == nil {
		t.Error("a Dense above the first parameter layer must still compute its input gradient")
	}

	first := NewNetwork(NewFlatten(), NewDense(64, 3, rng))
	first.BackwardParams(tensor.New(first.Forward(x, true).Shape()...).Fill(1))
	if d := first.Layers()[1].(*Dense); d.dx != nil || d.dw == nil {
		t.Errorf("first-layer Dense under BackwardParams: dx=%d values (want none), dw=%d (want some)", tensorSize(d.dx), tensorSize(d.dw))
	}
}

// TestScratchReuseMatchesFreshAllocations guards the buffer-recycling path:
// running several batches (of varying size) through one network must produce
// bitwise the same outputs and gradients as running each batch through a
// freshly cloned network that never reuses scratch.
func TestScratchReuseMatchesFreshAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	reused := testConvNet(rng)

	for _, batch := range []int{4, 7, 2, 7} {
		x := tensor.New(batch, 1, 8, 8).RandNormal(rng, 0, 1)
		dout := tensor.New(batch, 3).RandNormal(rng, 0, 1)

		fresh := reused.Clone() // same params, no cached scratch
		fresh.ZeroGrads()
		reused.ZeroGrads()

		wantOut := fresh.Forward(x, true)
		gotOut := reused.Forward(x, true)
		if d := wantOut.MaxAbsDiff(gotOut); d != 0 {
			t.Fatalf("batch %d: reused-scratch forward differs by %g", batch, d)
		}

		wantDx := fresh.Backward(dout.Clone())
		gotDx := reused.Backward(dout)
		if d := wantDx.MaxAbsDiff(gotDx); d != 0 {
			t.Fatalf("batch %d: reused-scratch backward differs by %g", batch, d)
		}
		for i, p := range reused.Params() {
			if d := p.G.MaxAbsDiff(fresh.Params()[i].G); d != 0 {
				t.Fatalf("batch %d: param %d gradient differs by %g", batch, i, d)
			}
		}
	}

	// A release mid-stream must be transparent to subsequent batches.
	reused.ReleaseActivations()
	x := tensor.New(3, 1, 8, 8).RandNormal(rng, 0, 1)
	fresh := reused.Clone()
	if d := fresh.Forward(x, true).MaxAbsDiff(reused.Forward(x, true)); d != 0 {
		t.Fatalf("post-release forward differs by %g", d)
	}
}
