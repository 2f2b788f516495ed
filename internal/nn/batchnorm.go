package nn

import (
	"fmt"
	"math"

	"goldfish/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW tensor over the batch and
// spatial dimensions, with learnable per-channel scale (gamma) and shift
// (beta). Running statistics are tracked for evaluation mode.
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64 // running-stat update rate, e.g. 0.1

	gamma, beta *Param

	// Running statistics (not learnable, but part of the model state).
	runMean, runVar []float64

	// Forward caches for Backward.
	xhat    *tensor.Tensor
	invStd  []float64
	xmu     *tensor.Tensor
	inShape []int
	m       float64 // number of elements per channel in the last batch

	out, dx *tensor.Tensor // reusable scratch
}

var _ Layer = (*BatchNorm2D)(nil)

// NewBatchNorm2D creates a batch-normalization layer over c channels with
// gamma=1, beta=0, eps=1e-5 and momentum 0.1.
func NewBatchNorm2D(c int) *BatchNorm2D {
	if c <= 0 {
		panic(fmt.Sprintf("nn: BatchNorm2D channels must be positive, got %d", c))
	}
	gamma := tensor.New(c).Fill(1)
	rv := make([]float64, c)
	for i := range rv {
		rv[i] = 1
	}
	return &BatchNorm2D{
		C:        c,
		Eps:      1e-5,
		Momentum: 0.1,
		gamma:    newParam("bn.gamma", gamma),
		beta:     newParam("bn.beta", tensor.New(c)),
		runMean:  make([]float64, c),
		runVar:   rv,
	}
}

// Forward implements Layer. In training mode it uses batch statistics and
// updates the running estimates; in evaluation mode it uses the running
// estimates.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != b.C {
		panic(fmt.Sprintf("nn: BatchNorm2D(%d) got input shape %v", b.C, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	area := h * w
	m := float64(n * area)
	b.inShape = x.Shape()
	b.m = m

	b.out = tensor.EnsureLike(b.out, x)
	out := b.out
	xd, od := x.Data(), out.Data()
	gd, bd := b.gamma.W.Data(), b.beta.W.Data()

	if !train {
		for ch := 0; ch < c; ch++ {
			invStd := 1 / math.Sqrt(b.runVar[ch]+b.Eps)
			g, bt, mu := gd[ch], bd[ch], b.runMean[ch]
			for i := 0; i < n; i++ {
				base := (i*c + ch) * area
				for j := 0; j < area; j++ {
					od[base+j] = g*(xd[base+j]-mu)*invStd + bt
				}
			}
		}
		b.xhat = nil
		return out
	}

	b.xhat = tensor.EnsureLike(b.xhat, x)
	b.xmu = tensor.EnsureLike(b.xmu, x)
	if cap(b.invStd) < c {
		b.invStd = make([]float64, c)
	}
	b.invStd = b.invStd[:c]
	xh, xm := b.xhat.Data(), b.xmu.Data()

	for ch := 0; ch < c; ch++ {
		var mean float64
		for i := 0; i < n; i++ {
			base := (i*c + ch) * area
			for j := 0; j < area; j++ {
				mean += xd[base+j]
			}
		}
		mean /= m
		var variance float64
		for i := 0; i < n; i++ {
			base := (i*c + ch) * area
			for j := 0; j < area; j++ {
				d := xd[base+j] - mean
				variance += d * d
			}
		}
		variance /= m
		invStd := 1 / math.Sqrt(variance+b.Eps)
		b.invStd[ch] = invStd
		g, bt := gd[ch], bd[ch]
		for i := 0; i < n; i++ {
			base := (i*c + ch) * area
			for j := 0; j < area; j++ {
				mu := xd[base+j] - mean
				xm[base+j] = mu
				hat := mu * invStd
				xh[base+j] = hat
				od[base+j] = g*hat + bt
			}
		}
		b.runMean[ch] = (1-b.Momentum)*b.runMean[ch] + b.Momentum*mean
		b.runVar[ch] = (1-b.Momentum)*b.runVar[ch] + b.Momentum*variance
	}
	return out
}

// Backward implements Layer using the standard batch-norm gradient.
func (b *BatchNorm2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if b.xhat == nil {
		panic("nn: BatchNorm2D.Backward called before a training-mode Forward")
	}
	n, c := b.inShape[0], b.inShape[1]
	area := b.inShape[2] * b.inShape[3]
	m := b.m

	b.dx = tensor.EnsureShape(b.dx, b.inShape...)
	dx := b.dx
	dd, dxd := dout.Data(), dx.Data()
	xh := b.xhat.Data()
	gd := b.gamma.W.Data()
	gg, bg := b.gamma.G.Data(), b.beta.G.Data()

	for ch := 0; ch < c; ch++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			base := (i*c + ch) * area
			for j := 0; j < area; j++ {
				dy := dd[base+j]
				sumDy += dy
				sumDyXhat += dy * xh[base+j]
			}
		}
		gg[ch] += sumDyXhat
		bg[ch] += sumDy
		g := gd[ch]
		invStd := b.invStd[ch]
		for i := 0; i < n; i++ {
			base := (i*c + ch) * area
			for j := 0; j < area; j++ {
				dy := dd[base+j]
				dxd[base+j] = g * invStd / m * (m*dy - sumDy - xh[base+j]*sumDyXhat)
			}
		}
	}
	return dx
}

// Params implements Layer.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.gamma, b.beta} }

// ReleaseActivations implements ActivationReleaser. Running statistics are
// model state and survive; only batch-sized caches and scratch are dropped.
func (b *BatchNorm2D) ReleaseActivations() {
	b.xhat, b.xmu, b.out, b.dx = nil, nil, nil, nil
	b.invStd = nil
	b.inShape = nil
}

// Clone implements Layer.
func (b *BatchNorm2D) Clone() Layer {
	out := NewBatchNorm2D(b.C)
	out.Eps = b.Eps
	out.Momentum = b.Momentum
	out.gamma.W.CopyFrom(b.gamma.W)
	out.beta.W.CopyFrom(b.beta.W)
	copy(out.runMean, b.runMean)
	copy(out.runVar, b.runVar)
	return out
}
