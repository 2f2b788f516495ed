package nn

import (
	"fmt"
	"math/rand"

	"goldfish/internal/tensor"
)

// Dense is a fully connected layer computing y = x·Wᵀ + b for x of shape
// (batch, in) and W of shape (out, in).
type Dense struct {
	In, Out int

	w, b *Param
	x    *tensor.Tensor // cached input for Backward

	// Reusable scratch, sized on first use and recycled across batches.
	// ReleaseActivations drops it so idle models hold no batch-sized state.
	fwdOut, dw, db, dx *tensor.Tensor
}

var _ Layer = (*Dense)(nil)

// NewDense creates a fully connected layer with He-normal weights and zero
// bias, drawing initialization randomness from rng.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: Dense dimensions must be positive, got in=%d out=%d", in, out))
	}
	w := tensor.New(out, in)
	heInit(w, in, rng)
	return &Dense{
		In:  in,
		Out: out,
		w:   newParam("dense.w", w),
		b:   newParam("dense.b", tensor.New(out)),
	}
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Dims() != 2 || x.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: Dense(%d→%d) got input shape %v", d.In, d.Out, x.Shape()))
	}
	d.x = x
	d.fwdOut = tensor.EnsureShape(d.fwdOut, x.Dim(0), d.Out)
	out := tensor.MatMulTransBInto(d.fwdOut, x, d.w.W) // (batch, out)
	batch := x.Dim(0)
	bd := d.b.W.Data()
	od := out.Data()
	for i := 0; i < batch; i++ {
		row := od[i*d.Out : (i+1)*d.Out]
		for j, bv := range bd {
			row[j] += bv
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(dout *tensor.Tensor) *tensor.Tensor { return d.backward(dout, true) }

// backwardParams implements paramsBackwarder.
func (d *Dense) backwardParams(dout *tensor.Tensor) { d.backward(dout, false) }

// backward accumulates the weight and bias gradients and, when needDx is
// set, computes and returns the input gradient (nil without it).
func (d *Dense) backward(dout *tensor.Tensor, needDx bool) *tensor.Tensor {
	if d.x == nil {
		panic("nn: Dense.Backward called before Forward")
	}
	// dW = doutᵀ · x ; db = column sums of dout ; dx = dout · W
	d.dw = tensor.EnsureShape(d.dw, d.Out, d.In)
	d.w.G.AddInPlace(tensor.MatMulTransAInto(d.dw, dout, d.x))
	d.db = tensor.SumRowsInto(d.db, dout)
	d.b.G.AddInPlace(d.db)
	if !needDx {
		return nil
	}
	d.dx = tensor.EnsureShape(d.dx, dout.Dim(0), d.In)
	return tensor.MatMulInto(d.dx, dout, d.w.W)
}

// ReleaseActivations implements ActivationReleaser.
func (d *Dense) ReleaseActivations() {
	d.x, d.fwdOut, d.dw, d.db, d.dx = nil, nil, nil, nil, nil
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// Clone implements Layer.
func (d *Dense) Clone() Layer {
	return &Dense{
		In:  d.In,
		Out: d.Out,
		w:   newParam(d.w.Name, d.w.W.Clone()),
		b:   newParam(d.b.Name, d.b.W.Clone()),
	}
}

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	mask []bool // true where input was positive

	out, dx *tensor.Tensor // reusable scratch
}

var _ Layer = (*ReLU)(nil)

// NewReLU creates a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	r.out = tensor.EnsureLike(r.out, x)
	if cap(r.mask) < x.Size() {
		r.mask = make([]bool, x.Size())
	}
	r.mask = r.mask[:x.Size()]
	od := r.out.Data()
	for i, v := range x.Data() {
		if v > 0 {
			r.mask[i] = true
			od[i] = v
		} else {
			r.mask[i] = false
			od[i] = 0
		}
	}
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if len(r.mask) != dout.Size() {
		panic("nn: ReLU.Backward size mismatch with cached Forward")
	}
	r.dx = tensor.EnsureLike(r.dx, dout)
	dd, dxd := dout.Data(), r.dx.Data()
	for i, keep := range r.mask {
		if keep {
			dxd[i] = dd[i]
		} else {
			dxd[i] = 0
		}
	}
	return r.dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return &ReLU{} }

// ReleaseActivations implements ActivationReleaser.
func (r *ReLU) ReleaseActivations() { r.mask, r.out, r.dx = nil, nil, nil }

// Flatten reshapes (N, ...) inputs into (N, prod(...)) matrices.
type Flatten struct {
	inShape []int
}

var _ Layer = (*Flatten)(nil)

// NewFlatten creates a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	f.inShape = x.Shape()
	n := x.Dim(0)
	return x.Reshape(n, -1)
}

// Backward implements Layer.
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if f.inShape == nil {
		panic("nn: Flatten.Backward called before Forward")
	}
	return dout.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Clone implements Layer.
func (f *Flatten) Clone() Layer { return &Flatten{} }

// ReleaseActivations implements ActivationReleaser.
func (f *Flatten) ReleaseActivations() { f.inShape = nil }
