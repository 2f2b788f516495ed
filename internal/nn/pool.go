package nn

import (
	"fmt"

	"goldfish/internal/tensor"
)

// MaxPool2D is a max-pooling layer over NCHW inputs with a square window and
// stride equal to the window size (non-overlapping pooling, as used by
// LeNet-5).
type MaxPool2D struct {
	Window int

	argmax  []int // flat input index chosen for each output element
	inShape []int

	out, dx *tensor.Tensor // reusable scratch
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D creates a max-pooling layer with the given window size.
func NewMaxPool2D(window int) *MaxPool2D {
	if window <= 0 {
		panic(fmt.Sprintf("nn: MaxPool2D window must be positive, got %d", window))
	}
	return &MaxPool2D{Window: window}
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D expects NCHW input, got %v", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	k := m.Window
	oh, ow := h/k, w/k
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("nn: MaxPool2D window %d too large for input %v", k, x.Shape()))
	}
	m.inShape = x.Shape()
	m.out = tensor.EnsureShape(m.out, n, c, oh, ow)
	out := m.out
	if cap(m.argmax) < out.Size() {
		m.argmax = make([]int, out.Size())
	}
	m.argmax = m.argmax[:out.Size()]
	xd, od := x.Data(), out.Data()
	oi := 0
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := base + (oy*k)*w + ox*k
					best := xd[bestIdx]
					for ky := 0; ky < k; ky++ {
						row := base + (oy*k+ky)*w + ox*k
						for kx := 0; kx < k; kx++ {
							if v := xd[row+kx]; v > best {
								best = v
								bestIdx = row + kx
							}
						}
					}
					od[oi] = best
					m.argmax[oi] = bestIdx
					oi++
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if m.inShape == nil {
		panic("nn: MaxPool2D.Backward called before Forward")
	}
	if dout.Size() != len(m.argmax) {
		panic("nn: MaxPool2D.Backward gradient size mismatch")
	}
	m.dx = tensor.EnsureShape(m.dx, m.inShape...)
	dx := m.dx.Zero()
	dd, dxd := dout.Data(), dx.Data()
	for i, idx := range m.argmax {
		dxd[idx] += dd[i]
	}
	return dx
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Clone implements Layer.
func (m *MaxPool2D) Clone() Layer { return &MaxPool2D{Window: m.Window} }

// ReleaseActivations implements ActivationReleaser.
func (m *MaxPool2D) ReleaseActivations() {
	m.argmax, m.inShape, m.out, m.dx = nil, nil, nil, nil
}

// GlobalAvgPool2D averages each channel over its full spatial extent,
// producing (N, C) outputs from (N, C, H, W) inputs. ResNets use it before
// the final classifier.
type GlobalAvgPool2D struct {
	inShape []int

	out, dx *tensor.Tensor // reusable scratch
}

var _ Layer = (*GlobalAvgPool2D)(nil)

// NewGlobalAvgPool2D creates a global average pooling layer.
func NewGlobalAvgPool2D() *GlobalAvgPool2D { return &GlobalAvgPool2D{} }

// Forward implements Layer.
func (g *GlobalAvgPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool2D expects NCHW input, got %v", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g.inShape = x.Shape()
	g.out = tensor.EnsureShape(g.out, n, c)
	out := g.out
	xd, od := x.Data(), out.Data()
	area := h * w
	inv := 1 / float64(area)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * area
			var s float64
			for _, v := range xd[base : base+area] {
				s += v
			}
			od[i*c+ch] = s * inv
		}
	}
	return out
}

// Backward implements Layer.
func (g *GlobalAvgPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if g.inShape == nil {
		panic("nn: GlobalAvgPool2D.Backward called before Forward")
	}
	n, c, h, w := g.inShape[0], g.inShape[1], g.inShape[2], g.inShape[3]
	area := h * w
	inv := 1 / float64(area)
	g.dx = tensor.EnsureShape(g.dx, g.inShape...)
	dx := g.dx
	dd, dxd := dout.Data(), dx.Data()
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			gval := dd[i*c+ch] * inv
			base := (i*c + ch) * area
			for j := 0; j < area; j++ {
				dxd[base+j] = gval
			}
		}
	}
	return dx
}

// Params implements Layer.
func (g *GlobalAvgPool2D) Params() []*Param { return nil }

// Clone implements Layer.
func (g *GlobalAvgPool2D) Clone() Layer { return &GlobalAvgPool2D{} }

// ReleaseActivations implements ActivationReleaser.
func (g *GlobalAvgPool2D) ReleaseActivations() { g.inShape, g.out, g.dx = nil, nil, nil }
