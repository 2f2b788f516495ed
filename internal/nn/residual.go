package nn

import (
	"math/rand"

	"goldfish/internal/tensor"
)

// Residual implements a post-activation residual block:
//
//	out = ReLU(main(x) + skip(x))
//
// where main is conv→bn→relu→conv→bn and skip is either the identity or a
// 1×1 strided convolution followed by batch norm when the shape changes
// (the standard CIFAR ResNet basic block of He et al.).
type Residual struct {
	main *Network
	skip *Network // nil means identity
	act  *ReLU

	lastX *tensor.Tensor
}

var _ Layer = (*Residual)(nil)

// NewResidual builds a basic residual block mapping inC channels to outC
// with the given stride on the first convolution. A projection shortcut is
// added automatically when inC != outC or stride != 1.
func NewResidual(inC, outC, stride int, rng *rand.Rand) *Residual {
	main := NewNetwork(
		NewConv2D(inC, outC, 3, stride, 1, rng),
		NewBatchNorm2D(outC),
		NewReLU(),
		NewConv2D(outC, outC, 3, 1, 1, rng),
		NewBatchNorm2D(outC),
	)
	var skip *Network
	if inC != outC || stride != 1 {
		skip = NewNetwork(
			NewConv2D(inC, outC, 1, stride, 0, rng),
			NewBatchNorm2D(outC),
		)
	}
	return &Residual{main: main, skip: skip, act: NewReLU()}
}

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.lastX = x
	y := r.main.Forward(x, train)
	var s *tensor.Tensor
	if r.skip != nil {
		s = r.skip.Forward(x, train)
	} else {
		s = x
	}
	// y aliases the main path's output scratch, which nothing reads after
	// this point, so the sum can accumulate in place (x is never y).
	return r.act.Forward(y.AddInPlace(s), train)
}

// Backward implements Layer.
func (r *Residual) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if r.lastX == nil {
		panic("nn: Residual.Backward called before Forward")
	}
	dsum := r.act.Backward(dout)
	dxMain := r.main.Backward(dsum)
	// dxMain aliases the main path's input-gradient scratch (distinct from
	// dsum, which is the activation's scratch), so accumulate in place.
	if r.skip != nil {
		return dxMain.AddInPlace(r.skip.Backward(dsum))
	}
	return dxMain.AddInPlace(dsum)
}

// Params implements Layer.
func (r *Residual) Params() []*Param {
	if r.skip == nil {
		return r.main.Params()
	}
	// Copy before concatenating: main.Params() is the sub-network's cached
	// slice, and appending to it directly would scribble on the cache's
	// spare capacity.
	ps := append([]*Param(nil), r.main.Params()...)
	return append(ps, r.skip.Params()...)
}

// Clone implements Layer.
func (r *Residual) Clone() Layer {
	out := &Residual{main: r.main.Clone(), act: NewReLU()}
	if r.skip != nil {
		out.skip = r.skip.Clone()
	}
	return out
}

// ReleaseActivations implements ActivationReleaser, recursing into the main
// and skip paths.
func (r *Residual) ReleaseActivations() {
	r.lastX = nil
	r.main.ReleaseActivations()
	if r.skip != nil {
		r.skip.ReleaseActivations()
	}
	r.act.ReleaseActivations()
}
