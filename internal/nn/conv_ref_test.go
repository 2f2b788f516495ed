package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"goldfish/internal/tensor"
)

// refConv is the whole-batch convolution Conv2D computed before it was
// tiled, kept as the oracle: one (inC·k², n·oh·ow) column matrix for the
// batch, retained from Forward to Backward, and three matrix products over
// it written as the naive triple loops (zero coefficients skipped where the
// tensor kernels skip them), so that it depends on neither the tiling nor
// the kernels it checks.
type refConv struct {
	inC, outC, k, stride, pad int
	w, b                      []float64 // (outC, inC·k²), (outC)
	wG, bG                    []float64 // accumulated like Param.G

	n, h, wd, oh, ow int
	cols             []float64
}

func newRefConv(c *Conv2D) *refConv {
	return &refConv{
		inC: c.InC, outC: c.OutC, k: c.Kernel, stride: c.Stride, pad: c.Pad,
		w: c.w.W.Data(), b: c.b.W.Data(),
		wG: make([]float64, c.w.G.Size()), bG: make([]float64, c.b.G.Size()),
	}
}

// refIm2col unrolls x (n, inC, h, w) into an (inC·k², n·oh·ow) matrix.
func refIm2col(xd []float64, n, inC, h, w, k, stride, pad, oh, ow int) []float64 {
	colW := n * oh * ow
	cd := make([]float64, inC*k*k*colW)
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				crow := cd[((ic*k+ky)*k+kx)*colW:]
				for i := 0; i < n; i++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								crow[(i*oh+oy)*ow+ox] = xd[((i*inC+ic)*h+iy)*w+ix]
							}
						}
					}
				}
			}
		}
	}
	return cd
}

// refCol2im scatters an (inC·k², n·oh·ow) matrix into a zeroed (n, inC, h, w)
// buffer, adding overlapping contributions in row-then-sample order.
func refCol2im(cd []float64, n, inC, h, w, k, stride, pad, oh, ow int) []float64 {
	colW := n * oh * ow
	od := make([]float64, n*inC*h*w)
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				crow := cd[((ic*k+ky)*k+kx)*colW:]
				for i := 0; i < n; i++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								od[((i*inC+ic)*h+iy)*w+ix] += crow[(i*oh+oy)*ow+ox]
							}
						}
					}
				}
			}
		}
	}
	return od
}

func (r *refConv) forward(x *tensor.Tensor) []float64 {
	r.n, r.h, r.wd = x.Dim(0), x.Dim(2), x.Dim(3)
	r.oh = (r.h+2*r.pad-r.k)/r.stride + 1
	r.ow = (r.wd+2*r.pad-r.k)/r.stride + 1
	patch, spatial := r.inC*r.k*r.k, r.oh*r.ow
	colW := r.n * spatial
	r.cols = refIm2col(x.Data(), r.n, r.inC, r.h, r.wd, r.k, r.stride, r.pad, r.oh, r.ow)

	// prod = w · cols, then bias and the scatter to (n, outC, oh, ow).
	prod := make([]float64, r.outC*colW)
	for oc := 0; oc < r.outC; oc++ {
		for p := 0; p < patch; p++ {
			av := r.w[oc*patch+p]
			if av == 0 {
				continue
			}
			for j := 0; j < colW; j++ {
				prod[oc*colW+j] += av * r.cols[p*colW+j]
			}
		}
	}
	out := make([]float64, r.n*r.outC*spatial)
	for oc := 0; oc < r.outC; oc++ {
		for i := 0; i < r.n; i++ {
			for j := 0; j < spatial; j++ {
				out[(i*r.outC+oc)*spatial+j] = prod[oc*colW+i*spatial+j] + r.b[oc]
			}
		}
	}
	return out
}

func (r *refConv) backward(dout *tensor.Tensor) []float64 {
	patch, spatial := r.inC*r.k*r.k, r.oh*r.ow
	colW := r.n * spatial
	dd := dout.Data()
	dprod := make([]float64, r.outC*colW)
	for oc := 0; oc < r.outC; oc++ {
		for i := 0; i < r.n; i++ {
			copy(dprod[oc*colW+i*spatial:], dd[(i*r.outC+oc)*spatial:(i*r.outC+oc+1)*spatial])
		}
	}
	for oc := 0; oc < r.outC; oc++ {
		var s float64
		for _, v := range dprod[oc*colW : (oc+1)*colW] {
			s += v
		}
		r.bG[oc] += s
	}
	// dw = dprod · colsᵀ, summed from zero, then added to the gradient.
	for oc := 0; oc < r.outC; oc++ {
		for p := 0; p < patch; p++ {
			var s float64
			for j := 0; j < colW; j++ {
				s += dprod[oc*colW+j] * r.cols[p*colW+j]
			}
			r.wG[oc*patch+p] += s
		}
	}
	// dcols = wᵀ · dprod, then col2im.
	dcols := make([]float64, patch*colW)
	for p := 0; p < patch; p++ {
		for oc := 0; oc < r.outC; oc++ {
			av := r.w[oc*patch+p]
			if av == 0 {
				continue
			}
			for j := 0; j < colW; j++ {
				dcols[p*colW+j] += av * dprod[oc*colW+j]
			}
		}
	}
	return refCol2im(dcols, r.n, r.inC, r.h, r.wd, r.k, r.stride, r.pad, r.oh, r.ow)
}

func wantSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x (%g), want %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestConvTiledMatchesWholeBatchBitwise is the oracle for the tiled Conv2D:
// out, dx and both gradients must equal the whole-batch reference bit for
// bit, whatever the number of tiles, across consecutive batches of different
// sizes on one layer and with gradients accumulating over Backward calls.
func TestConvTiledMatchesWholeBatchBitwise(t *testing.T) {
	cases := []struct {
		name                          string
		inC, outC, k, stride, pad, hw int
		batches                       []int // beyond those derived from the tile
	}{
		{"lenet-conv1-k5-pad2", 1, 6, 5, 1, 2, 28, []int{100, 33}},
		{"lenet-conv2-inC6", 6, 16, 5, 1, 0, 14, []int{100, 33}},
		{"stride2-pad1-inC3", 3, 4, 3, 2, 1, 48, nil},
		{"projection-1x1-stride2", 6, 8, 1, 2, 0, 64, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			c := NewConv2D(tc.inC, tc.outC, tc.k, tc.stride, tc.pad, rng)
			c.b.W.RandNormal(rng, 0, 1)
			c.w.W.Data()[1] = 0 // the kernels skip zero coefficients
			ref := newRefConv(c)

			oh := c.OutSize(tc.hw)
			fit := convTileFloats / (tc.inC * tc.k * tc.k * oh * oh)
			if fit < 2 || (tc.batches != nil && fit >= 33) {
				t.Fatalf("a tile holds %d samples: the case no longer spans several tiles", fit)
			}
			// Below a tile, exactly one, two full ones, two balanced ones
			// with and without a shorter last, and the listed batches; no
			// ZeroGrads in between, so gradients accumulate.
			batches := append([]int{fit - 1, fit, 2 * fit, fit + 2, fit + 3, 1}, tc.batches...)
			for _, n := range batches {
				x := tensor.New(n, tc.inC, tc.hw, tc.hw).RandNormal(rng, 0, 1)
				dout := tensor.New(n, tc.outC, oh, oh).RandNormal(rng, 0, 1)
				what := fmt.Sprintf("batch %d", n)
				wantSameBits(t, what+" out", c.Forward(x, true).Data(), ref.forward(x))
				if got := (n + c.tileSamples(n) - 1) / c.tileSamples(n); got != (n+fit-1)/fit {
					t.Fatalf("%s ran in %d tiles, want %d", what, got, (n+fit-1)/fit)
				}
				wantSameBits(t, what+" dx", c.Backward(dout).Data(), ref.backward(dout))
				wantSameBits(t, what+" w.G", c.w.G.Data(), ref.wG)
				wantSameBits(t, what+" b.G", c.b.G.Data(), ref.bG)
			}
		})
	}
}

// oldIm2col and oldCol2im are the bodies im2col and col2im had while they
// tested every element's input column against [0, w), kept as the oracle for
// the range-copied loops: same loop nest, one bounds test per element.
func oldIm2col(x *tensor.Tensor, i0, i1, k, stride, pad, oh, ow int, cols *tensor.Tensor) {
	inC, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	xd := x.Data()
	cd := cols.Data()
	colW := (i1 - i0) * oh * ow
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				rowIdx := (ic*k+ky)*k + kx
				crow := cd[rowIdx*colW : (rowIdx+1)*colW]
				for i := i0; i < i1; i++ {
					base := (i*inC + ic) * h * w
					for oy := 0; oy < oh; oy++ {
						iy := oy*stride + ky - pad
						dst := crow[((i-i0)*oh+oy)*ow : ((i-i0)*oh+oy+1)*ow]
						if iy < 0 || iy >= h {
							clear(dst)
							continue
						}
						for ox := 0; ox < ow; ox++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= w {
								dst[ox] = 0
							} else {
								dst[ox] = xd[base+iy*w+ix]
							}
						}
					}
				}
			}
		}
	}
}

func oldCol2im(cols *tensor.Tensor, i0, i1, k, stride, pad, oh, ow int, out *tensor.Tensor) {
	inC, h, w := out.Dim(1), out.Dim(2), out.Dim(3)
	od := out.Data()
	cd := cols.Data()
	colW := (i1 - i0) * oh * ow
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				rowIdx := (ic*k+ky)*k + kx
				crow := cd[rowIdx*colW : (rowIdx+1)*colW]
				for i := i0; i < i1; i++ {
					base := (i*inC + ic) * h * w
					for oy := 0; oy < oh; oy++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						src := crow[((i-i0)*oh+oy)*ow : ((i-i0)*oh+oy+1)*ow]
						for ox := 0; ox < ow; ox++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= w {
								continue
							}
							od[base+iy*w+ix] += src[ox]
						}
					}
				}
			}
		}
	}
}

// TestIm2colCol2imMatchPerElementBitwise sweeps kernel, stride, padding,
// non-square and narrower-than-kernel inputs and tile offsets, and requires
// the range-copied im2col and col2im to produce the bits of the per-element
// loops — im2col over stale scratch, col2im on top of a non-zero out. The
// sweep must meet taps whose range is empty, partial and the whole row.
func TestIm2colCol2imMatchPerElementBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, inC = 3, 2
	sizes := [][2]int{{7, 4}, {4, 9}, {6, 2}, {2, 6}, {3, 3}, {11, 5}}
	tiles := [][2]int{{0, n}, {1, n}, {1, 2}}
	var empty, partial, whole, cases int
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 2, k, k + 1} {
				for _, hw := range sizes {
					h, w := hw[0], hw[1]
					if h+2*pad < k || w+2*pad < k {
						continue // no output
					}
					oh, ow := (h+2*pad-k)/stride+1, (w+2*pad-k)/stride+1
					for kx := 0; kx < k; kx++ {
						switch lo, hi := tapRange(kx-pad, stride, w, ow); {
						case lo == hi:
							empty++
						case lo == 0 && hi == ow:
							whole++
						default:
							partial++
						}
					}
					x := tensor.New(n, inC, h, w).RandNormal(rng, 0, 1)
					for _, tl := range tiles {
						i0, i1 := tl[0], tl[1]
						what := fmt.Sprintf("k=%d stride=%d pad=%d %dx%d samples [%d,%d)", k, stride, pad, h, w, i0, i1)
						got := tensor.New(inC*k*k, (i1-i0)*oh*ow).Fill(math.NaN())
						want := tensor.New(inC*k*k, (i1-i0)*oh*ow).Fill(math.Inf(1))
						im2col(x, i0, i1, k, stride, pad, oh, ow, got)
						oldIm2col(x, i0, i1, k, stride, pad, oh, ow, want)
						wantSameBits(t, what+" im2col", got.Data(), want.Data())

						cols := tensor.New(inC*k*k, (i1-i0)*oh*ow).RandNormal(rng, 0, 1)
						gotX := tensor.New(n, inC, h, w).RandNormal(rng, 0, 1)
						wantX := gotX.Clone()
						col2im(cols, i0, i1, k, stride, pad, oh, ow, gotX)
						oldCol2im(cols, i0, i1, k, stride, pad, oh, ow, wantX)
						wantSameBits(t, what+" col2im", gotX.Data(), wantX.Data())
						cases++
					}
				}
			}
		}
	}
	if empty == 0 || partial == 0 || whole == 0 {
		t.Errorf("the sweep met %d empty, %d partial and %d whole-row tap ranges; want some of each", empty, partial, whole)
	}
	t.Logf("%d geometries × tiles; tap ranges: %d empty, %d partial, %d whole", cases, empty, partial, whole)
}
