package nn

import (
	"fmt"
	"math/rand"

	"goldfish/internal/tensor"
)

// convTileFloats bounds the column scratch of a Conv2D: the unrolled
// (inC·k², samples·oh·ow) matrix is built for as many samples at a time as
// fit in this many float64s (1 MiB), never for the whole batch. Measured at
// 64 Ki, 128 Ki and 256 Ki with BenchmarkConv2DStep and the train-lenet and
// unlearn-sample workloads: step and round times did not differ beyond the
// box's noise except for a single LeNet-5 network at 64 Ki (about a tenth
// slower), while peak memory fell with the tile; a tile this size also stays
// in a core's L2 cache between being unrolled and being multiplied.
const convTileFloats = 128 * 1024

// Conv2D is a 2-D convolution over NCHW inputs with square kernels, uniform
// stride and zero padding. Weights have shape (outC, inC, k, k).
//
// The convolution is im2col + matrix multiplication, walked over the batch
// in tiles of samples so that the column matrix and the products around it
// hold one tile (see convTileFloats) whatever the batch size. Forward keeps
// the input tensor instead of its unrolled columns; Backward unrolls each
// tile again from it, so the input must stay unmodified until Backward has
// run (see Layer). Tiling reorders no floating-point sum — output and
// input-gradient elements belong to one sample, and the weight and bias
// gradients accumulate tile after tile in sample order — so results are
// bitwise those of the whole-batch computation.
type Conv2D struct {
	InC, OutC    int
	Kernel       int
	Stride       int
	Pad          int
	w, b         *Param
	x            *tensor.Tensor // the last Forward's input, re-unrolled by Backward
	inH, inW     int
	outH, outW   int
	cachedBatch  int
	cachedShapes bool

	// Reusable scratch recycled across batches and released by
	// ReleaseActivations together with x. cols, prod, dprod and dcols hold
	// one tile of samples; out, dw and dx are the layer's results.
	cols, prod, out, dprod, dw, dcols, dx *tensor.Tensor

	// wmat views the weights as the (OutC, patch) matrix the products
	// take; it shares w's storage, which the layer never replaces.
	wmat *tensor.Tensor
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D creates a convolution layer with He-normal initialized weights.
func NewConv2D(inC, outC, kernel, stride, pad int, rng *rand.Rand) *Conv2D {
	if inC <= 0 || outC <= 0 || kernel <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: invalid Conv2D config inC=%d outC=%d k=%d s=%d p=%d",
			inC, outC, kernel, stride, pad))
	}
	w := tensor.New(outC, inC, kernel, kernel)
	heInit(w, inC*kernel*kernel, rng)
	return &Conv2D{
		InC:    inC,
		OutC:   outC,
		Kernel: kernel,
		Stride: stride,
		Pad:    pad,
		w:      newParam("conv.w", w),
		b:      newParam("conv.b", tensor.New(outC)),
	}
}

// OutSize returns the spatial output size for a given input size.
func (c *Conv2D) OutSize(in int) int {
	return (in+2*c.Pad-c.Kernel)/c.Stride + 1
}

// tileSamples returns how many samples of an n-sample batch one tile holds:
// the batch is cut into the fewest tiles that respect convTileFloats (a
// single sample may exceed it), then balanced so the last tile is not a
// sliver.
func (c *Conv2D) tileSamples(n int) int {
	fit := max(convTileFloats/(c.InC*c.Kernel*c.Kernel*c.outH*c.outW), 1)
	tiles := max((n+fit-1)/fit, 1)
	return (n + tiles - 1) / tiles
}

// Forward implements Layer using im2col + matrix multiplication, one tile of
// samples at a time.
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D(inC=%d) got input shape %v", c.InC, x.Shape()))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.OutSize(h), c.OutSize(w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: Conv2D produces empty output for input %v", x.Shape()))
	}
	c.inH, c.inW, c.outH, c.outW, c.cachedBatch = h, w, oh, ow, n
	c.cachedShapes = true
	c.x = x

	patch := c.InC * c.Kernel * c.Kernel
	spatial := oh * ow
	wmat := c.weightMatrix()
	c.out = tensor.EnsureShape(c.out, n, c.OutC, oh, ow)
	od := c.out.Data()
	bd := c.b.W.Data()
	tile, width := c.tileSamples(n), 0
	for i0 := 0; i0 < n; i0 += tile {
		i1 := min(i0+tile, n)
		if (i1-i0)*spatial != width { // the first tile, and a shorter last one
			width = (i1 - i0) * spatial
			c.cols = tensor.EnsureShape(c.cols, patch, width)
			c.prod = tensor.EnsureShape(c.prod, c.OutC, width)
		}
		im2col(x, i0, i1, c.Kernel, c.Stride, c.Pad, oh, ow, c.cols)
		pd := tensor.MatMulInto(c.prod, wmat, c.cols).Data() // (outC, width)
		for oc := 0; oc < c.OutC; oc++ {
			prow := pd[oc*width : (oc+1)*width]
			bias := bd[oc]
			for i := i0; i < i1; i++ {
				dst := od[(i*c.OutC+oc)*spatial : (i*c.OutC+oc+1)*spatial]
				src := prow[(i-i0)*spatial : (i-i0+1)*spatial]
				for j, v := range src {
					dst[j] = v + bias
				}
			}
		}
	}
	return c.out
}

// Backward implements Layer. It re-reads the input Forward was given.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor { return c.backward(dout, true) }

// backwardParams implements paramsBackwarder.
func (c *Conv2D) backwardParams(dout *tensor.Tensor) { c.backward(dout, false) }

// backward accumulates the weight and bias gradients and, when needDx is
// set, computes and returns the input gradient; without it the layer neither
// sizes nor touches dx and dcols and returns nil.
func (c *Conv2D) backward(dout *tensor.Tensor, needDx bool) *tensor.Tensor {
	if !c.cachedShapes {
		panic("nn: Conv2D.Backward called before Forward")
	}
	n, oh, ow := c.cachedBatch, c.outH, c.outW
	patch := c.InC * c.Kernel * c.Kernel
	spatial := oh * ow
	dd := dout.Data()

	// Bias gradient: sum over all positions per output channel, in sample
	// order.
	bg := c.b.G.Data()
	for oc := 0; oc < c.OutC; oc++ {
		var s float64
		for i := 0; i < n; i++ {
			for _, v := range dd[(i*c.OutC+oc)*spatial : (i*c.OutC+oc+1)*spatial] {
				s += v
			}
		}
		bg[oc] += s
	}

	wmat := c.weightMatrix()
	c.dw = tensor.EnsureShape(c.dw, c.OutC, patch).Zero()
	if needDx {
		c.dx = tensor.EnsureShape(c.dx, n, c.InC, c.inH, c.inW).Zero()
	}
	tile, width := c.tileSamples(n), 0
	for i0 := 0; i0 < n; i0 += tile {
		i1 := min(i0+tile, n)
		if (i1-i0)*spatial != width { // the first tile, and a shorter last one
			width = (i1 - i0) * spatial
			c.dprod = tensor.EnsureShape(c.dprod, c.OutC, width)
			c.cols = tensor.EnsureShape(c.cols, patch, width)
			if needDx {
				c.dcols = tensor.EnsureShape(c.dcols, patch, width)
			}
		}

		// Rearrange the tile's dout rows (i, outC, oh, ow) into
		// (outC, width) to mirror prod.
		dpd := c.dprod.Data()
		for oc := 0; oc < c.OutC; oc++ {
			drow := dpd[oc*width : (oc+1)*width]
			for i := i0; i < i1; i++ {
				copy(drow[(i-i0)*spatial:], dd[(i*c.OutC+oc)*spatial:(i*c.OutC+oc+1)*spatial])
			}
		}

		// Weight gradient: dw continues dprod · colsᵀ over the tile's
		// columns, unrolled again from the retained input.
		im2col(c.x, i0, i1, c.Kernel, c.Stride, c.Pad, oh, ow, c.cols)
		tensor.MatMulTransBAccInto(c.dw, c.dprod, c.cols) // (outC, patch)

		if needDx {
			// Input gradient: dcols = Wᵀ · dprod, then col2im into the
			// tile's samples of dx.
			tensor.MatMulTransAInto(c.dcols, wmat, c.dprod) // (patch, width)
			col2im(c.dcols, i0, i1, c.Kernel, c.Stride, c.Pad, oh, ow, c.dx)
		}
	}
	// dw was summed from zero over the whole batch before it meets the
	// gradient already accumulated, as one whole-batch product would be.
	wg := c.w.G.Data()
	for i, v := range c.dw.Data() {
		wg[i] += v
	}
	if !needDx {
		return nil
	}
	return c.dx
}

// weightMatrix returns wmat, building it on first use.
func (c *Conv2D) weightMatrix() *tensor.Tensor {
	if c.wmat == nil {
		c.wmat = c.w.W.Reshape(c.OutC, c.InC*c.Kernel*c.Kernel)
	}
	return c.wmat
}

// ReleaseActivations implements ActivationReleaser.
func (c *Conv2D) ReleaseActivations() {
	c.x, c.cols, c.prod, c.out, c.dprod, c.dw, c.dcols, c.dx = nil, nil, nil, nil, nil, nil, nil, nil
	c.cachedShapes = false
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// Clone implements Layer.
func (c *Conv2D) Clone() Layer {
	return &Conv2D{
		InC:    c.InC,
		OutC:   c.OutC,
		Kernel: c.Kernel,
		Stride: c.Stride,
		Pad:    c.Pad,
		w:      newParam(c.w.Name, c.w.W.Clone()),
		b:      newParam(c.b.Name, c.b.W.Clone()),
	}
}

// tapRange returns the output columns [lo, hi) of an ow-wide output row whose
// input column ox·stride + off (off = kx − pad, one kernel tap) lies inside
// [0, w); every other column of that tap reads padding. The range may be
// empty (lo == hi) or the whole row.
func tapRange(off, stride, w, ow int) (lo, hi int) {
	if off < 0 {
		lo = (-off + stride - 1) / stride // the first ox with ox·stride + off ≥ 0
	}
	if last := w - 1 - off; last >= 0 {
		hi = last/stride + 1 // one past the last ox with ox·stride + off ≤ w − 1
	}
	hi = min(hi, ow)
	return min(lo, hi), hi
}

// im2col unrolls samples [i0, i1) of x (n, inC, h, w) into the provided
// (inC*k*k, (i1-i0)*oh*ow) matrix where each column is one receptive field;
// every element is written, so cols may hold stale scratch. Per kernel tap
// the columns that read input are one range (tapRange), so a row is two
// clears and a copy — a strided gather when stride > 1 — with no test per
// element.
func im2col(x *tensor.Tensor, i0, i1, k, stride, pad, oh, ow int, cols *tensor.Tensor) {
	inC, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	xd := x.Data()
	cd := cols.Data()
	colW := (i1 - i0) * oh * ow
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				rowIdx := (ic*k+ky)*k + kx
				crow := cd[rowIdx*colW : (rowIdx+1)*colW]
				off := kx - pad
				lo, hi := tapRange(off, stride, w, ow)
				if lo == hi {
					clear(crow)
					continue
				}
				for i := i0; i < i1; i++ {
					base := (i*inC + ic) * h * w
					for oy := 0; oy < oh; oy++ {
						iy := oy*stride + ky - pad
						dst := crow[((i-i0)*oh+oy)*ow : ((i-i0)*oh+oy+1)*ow]
						if iy < 0 || iy >= h {
							clear(dst)
							continue
						}
						clear(dst[:lo])
						clear(dst[hi:])
						first := base + iy*w + lo*stride + off
						if stride == 1 {
							copy(dst[lo:hi], xd[first:])
							continue
						}
						dst = dst[lo:hi]
						src := xd[first : first+(len(dst)-1)*stride+1]
						for j := range dst {
							dst[j] = src[j*stride]
						}
					}
				}
			}
		}
	}
}

// col2im scatters a (inC*k*k, (i1-i0)*oh*ow) column matrix back into samples
// [i0, i1) of out (n, inC, h, w), accumulating overlapping contributions on
// top of what out holds; the caller zeroes out first. It walks the loop nest
// of im2col and adds over the same per-tap range, so every element of out
// receives its contributions in (ic, ky, kx) order.
func col2im(cols *tensor.Tensor, i0, i1, k, stride, pad, oh, ow int, out *tensor.Tensor) {
	inC, h, w := out.Dim(1), out.Dim(2), out.Dim(3)
	od := out.Data()
	cd := cols.Data()
	colW := (i1 - i0) * oh * ow
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				rowIdx := (ic*k+ky)*k + kx
				crow := cd[rowIdx*colW : (rowIdx+1)*colW]
				off := kx - pad
				lo, hi := tapRange(off, stride, w, ow)
				if lo == hi {
					continue
				}
				for i := i0; i < i1; i++ {
					base := (i*inC + ic) * h * w
					for oy := 0; oy < oh; oy++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						src := crow[((i-i0)*oh+oy)*ow+lo : ((i-i0)*oh+oy)*ow+hi]
						first := base + iy*w + lo*stride + off
						if stride == 1 {
							dst := od[first : first+len(src)]
							for j, v := range src {
								dst[j] += v
							}
							continue
						}
						dst := od[first : first+(len(src)-1)*stride+1]
						for j, v := range src {
							dst[j*stride] += v
						}
					}
				}
			}
		}
	}
}
