package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"goldfish/internal/tensor"
)

// quadLoss is the scalar test loss L = ½ Σ out², whose gradient w.r.t. the
// output is simply the output itself. Gradient checks use it to validate
// every layer's Backward against numerical differentiation.
func quadLoss(out *tensor.Tensor) float64 {
	var s float64
	for _, v := range out.Data() {
		s += v * v
	}
	return 0.5 * s
}

// checkGradients verifies analytic parameter and input gradients of net
// against central finite differences on input x.
func checkGradients(t *testing.T, net *Network, x *tensor.Tensor, tol float64) {
	t.Helper()
	forward := func() float64 { return quadLoss(net.Forward(x, true)) }

	out := net.Forward(x, true)
	net.ZeroGrads()
	dx := net.Backward(out.Clone()) // dL/dout = out for quadLoss

	const eps = 1e-5
	// Parameter gradients: probe a bounded number of indices per parameter.
	for _, p := range net.Params() {
		n := p.W.Size()
		stride := n/7 + 1
		for i := 0; i < n; i += stride {
			orig := p.W.Data()[i]
			p.W.Data()[i] = orig + eps
			lp := forward()
			p.W.Data()[i] = orig - eps
			lm := forward()
			p.W.Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			got := p.G.Data()[i]
			if math.Abs(num-got) > tol*(1+math.Abs(num)) {
				t.Errorf("param %s[%d]: analytic %g vs numerical %g", p.Name, i, got, num)
			}
		}
	}
	// Input gradients.
	n := x.Size()
	stride := n/7 + 1
	for i := 0; i < n; i += stride {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		lp := forward()
		x.Data()[i] = orig - eps
		lm := forward()
		x.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		got := dx.Data()[i]
		if math.Abs(num-got) > tol*(1+math.Abs(num)) {
			t.Errorf("input[%d]: analytic %g vs numerical %g", i, got, num)
		}
	}
}

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 3, rng)
	// Overwrite weights with known values: W = [[1,2],[3,4],[5,6]], b = [1,1,1].
	copy(d.w.W.Data(), []float64{1, 2, 3, 4, 5, 6})
	d.b.W.Fill(1)
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	out := d.Forward(x, true)
	want := []float64{4, 8, 12}
	for i, w := range want {
		if math.Abs(out.Data()[i]-w) > 1e-12 {
			t.Errorf("out[%d] = %g, want %g", i, out.Data()[i], w)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(NewDense(5, 4, rng), NewReLU(), NewDense(4, 3, rng))
	x := tensor.New(3, 5).RandNormal(rng, 0, 1)
	checkGradients(t, net, x, 1e-6)
}

func TestConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(NewConv2D(2, 3, 3, 1, 1, rng), NewReLU())
	x := tensor.New(2, 2, 5, 5).RandNormal(rng, 0, 1)
	checkGradients(t, net, x, 1e-5)
}

func TestConvStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewNetwork(NewConv2D(1, 2, 3, 2, 1, rng))
	x := tensor.New(2, 1, 6, 6).RandNormal(rng, 0, 1)
	checkGradients(t, net, x, 1e-5)
}

func TestConvForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv2D(1, 1, 2, 1, 0, rng)
	copy(c.w.W.Data(), []float64{1, 0, 0, 1}) // identity-ish 2x2 kernel: x[0,0]+x[1,1]
	c.b.W.Fill(0)
	x := tensor.FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	out := c.Forward(x, true)
	want := []float64{1 + 5, 2 + 6, 4 + 8, 5 + 9}
	if out.Dim(2) != 2 || out.Dim(3) != 2 {
		t.Fatalf("output shape = %v, want 1x1x2x2", out.Shape())
	}
	for i, w := range want {
		if math.Abs(out.Data()[i]-w) > 1e-12 {
			t.Errorf("out[%d] = %g, want %g", i, out.Data()[i], w)
		}
	}
}

func TestMaxPoolForwardKnown(t *testing.T) {
	p := NewMaxPool2D(2)
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := p.Forward(x, true)
	want := []float64{6, 8, 14, 16}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Errorf("pool out[%d] = %g, want %g", i, out.Data()[i], w)
		}
	}
	// Backward routes gradient to argmax positions only.
	dout := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	dx := p.Backward(dout)
	if dx.At(0, 0, 1, 1) != 1 || dx.At(0, 0, 3, 3) != 4 {
		t.Errorf("pool backward misrouted: %v", dx.Data())
	}
	if dx.At(0, 0, 0, 0) != 0 {
		t.Error("non-max position received gradient")
	}
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork(NewConv2D(1, 2, 3, 1, 1, rng), NewMaxPool2D(2))
	x := tensor.New(2, 1, 6, 6).RandNormal(rng, 0, 1)
	checkGradients(t, net, x, 1e-5)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork(NewConv2D(1, 3, 3, 1, 1, rng), NewGlobalAvgPool2D(), NewDense(3, 2, rng))
	x := tensor.New(2, 1, 5, 5).RandNormal(rng, 0, 1)
	checkGradients(t, net, x, 1e-5)
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewNetwork(NewConv2D(1, 3, 3, 1, 1, rng), NewBatchNorm2D(3), NewReLU())
	x := tensor.New(4, 1, 4, 4).RandNormal(rng, 0, 1)
	checkGradients(t, net, x, 1e-4)
}

func TestBatchNormNormalizes(t *testing.T) {
	bn := NewBatchNorm2D(2)
	rng := rand.New(rand.NewSource(9))
	x := tensor.New(8, 2, 3, 3).RandNormal(rng, 5, 3)
	out := bn.Forward(x, true)
	// With gamma=1 beta=0 each channel should be ~N(0,1) over batch+space.
	n, c, area := 8, 2, 9
	for ch := 0; ch < c; ch++ {
		var mean float64
		for i := 0; i < n; i++ {
			for j := 0; j < area; j++ {
				mean += out.Data()[(i*c+ch)*area+j]
			}
		}
		mean /= float64(n * area)
		if math.Abs(mean) > 1e-9 {
			t.Errorf("channel %d mean = %g, want ~0", ch, mean)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm2D(1)
	rng := rand.New(rand.NewSource(10))
	// Train on several batches to move the running stats.
	for i := 0; i < 20; i++ {
		x := tensor.New(4, 1, 2, 2).RandNormal(rng, 3, 2)
		bn.Forward(x, true)
	}
	// State holds the running mean, then the running variance.
	st := bn.State()
	if math.Abs(st[0]-3) > 1 {
		t.Errorf("running mean = %g, want near 3", st[0])
	}
	if st[1] < 1 {
		t.Errorf("running variance = %g, want > 1", st[1])
	}
	// Eval mode output should not depend on the batch composition.
	a := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	outSolo := bn.Forward(a, false).Clone()
	b := tensor.Concat(a, tensor.New(1, 1, 2, 2).Fill(100))
	outPaired := bn.Forward(b, false)
	for i := 0; i < 4; i++ {
		if math.Abs(outSolo.Data()[i]-outPaired.Data()[i]) > 1e-12 {
			t.Fatal("eval-mode BatchNorm output depends on batch composition")
		}
	}
}

func TestResidualGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Identity skip.
	net := NewNetwork(NewResidual(2, 2, 1, rng))
	x := tensor.New(2, 2, 4, 4).RandNormal(rng, 0, 1)
	checkGradients(t, net, x, 1e-4)
}

func TestResidualProjectionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Channel change + stride forces a projection shortcut.
	net := NewNetwork(NewResidual(2, 4, 2, rng))
	x := tensor.New(2, 2, 4, 4).RandNormal(rng, 0, 1)
	checkGradients(t, net, x, 1e-4)
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.New(2, 3, 4, 4).Fill(1)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 48 {
		t.Fatalf("flatten shape = %v", y.Shape())
	}
	dx := f.Backward(y)
	if dx.Dims() != 4 || dx.Dim(3) != 4 {
		t.Fatalf("flatten backward shape = %v", dx.Shape())
	}
}

func TestParamVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := NewNetwork(NewConv2D(1, 2, 3, 1, 1, rng), NewBatchNorm2D(2), NewFlatten(), NewDense(2*4*4, 3, rng))
	b := a.Clone()
	// Perturb b, then restore via vector copy.
	for _, p := range b.Params() {
		p.W.Fill(0.123)
	}
	if err := b.SetParamVector(a.ParamVector()); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 1, 4, 4).RandNormal(rng, 0, 1)
	oa := a.Forward(x, false)
	ob := b.Forward(x, false)
	if !oa.ApproxEqual(ob, 1e-12) {
		t.Error("networks disagree after parameter-vector round trip")
	}
}

func TestSetParamVectorWrongSize(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := NewNetwork(NewDense(2, 2, rng))
	if err := n.SetParamVector([]float64{1}); err == nil {
		t.Error("expected error for wrong-size vector")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := NewNetwork(NewDense(3, 3, rng), NewReLU(), NewDense(3, 2, rng))
	b := a.Clone()
	b.Params()[0].W.Fill(7)
	if a.Params()[0].W.Data()[0] == 7 {
		t.Error("Clone shares parameter storage")
	}
	if a.NumParams() != b.NumParams() {
		t.Error("Clone changed parameter count")
	}
}

func TestZeroGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	net := NewNetwork(NewDense(2, 2, rng))
	x := tensor.New(1, 2).RandNormal(rng, 0, 1)
	out := net.Forward(x, true)
	net.Backward(out)
	net.ZeroGrads()
	for _, p := range net.Params() {
		for _, g := range p.G.Data() {
			if g != 0 {
				t.Fatal("gradient not zeroed")
			}
		}
	}
}

func TestGradientAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := NewNetwork(NewDense(2, 2, rng))
	x := tensor.New(1, 2).RandNormal(rng, 0, 1)

	out := net.Forward(x, true)
	net.ZeroGrads()
	net.Backward(out.Clone())
	g1 := net.GradVector()

	// Two identical backward passes should double the gradient.
	net.Forward(x, true)
	net.Backward(out.Clone())
	g2 := net.GradVector()
	for i := range g1 {
		if math.Abs(g2[i]-2*g1[i]) > 1e-12 {
			t.Fatalf("gradients do not accumulate: %g vs 2*%g", g2[i], g1[i])
		}
	}
}

// Property: ParamVector/SetParamVector is a lossless round trip for random
// vectors of the right size.
func TestQuickParamVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	net := NewNetwork(NewDense(4, 3, rng), NewReLU(), NewDense(3, 2, rng))
	n := net.NumParams()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		if err := net.SetParamVector(v); err != nil {
			return false
		}
		got := net.ParamVector()
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicInit(t *testing.T) {
	a := NewNetwork(NewConv2D(1, 2, 3, 1, 1, rand.New(rand.NewSource(42))))
	b := NewNetwork(NewConv2D(1, 2, 3, 1, 1, rand.New(rand.NewSource(42))))
	av, bv := a.ParamVector(), b.ParamVector()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatal("same seed must give identical initialization")
		}
	}
}

func TestStateVectorRoundTripWithBatchNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := NewNetwork(NewConv2D(1, 2, 3, 1, 1, rng), NewBatchNorm2D(2), NewReLU(),
		NewResidual(2, 4, 2, rng), NewGlobalAvgPool2D(), NewDense(4, 3, rng))
	// Train-mode forwards move the BN running stats away from defaults.
	for i := 0; i < 5; i++ {
		x := tensor.New(4, 1, 8, 8).RandNormal(rng, 2, 3)
		a.Forward(x, true)
	}
	sv := a.StateVector()
	if len(sv) <= a.NumParams() {
		t.Fatal("state vector should include BatchNorm running stats")
	}
	b := a.Clone()
	// Perturb b completely, then restore from a's state vector.
	for _, p := range b.Params() {
		p.W.Fill(0.5)
	}
	if err := b.SetStateVector(sv); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 1, 8, 8).RandNormal(rng, 0, 1)
	oa := a.Forward(x, false)
	ob := b.Forward(x, false)
	if !oa.ApproxEqual(ob, 1e-12) {
		t.Error("eval outputs disagree after state-vector round trip")
	}
}

func TestSetStateVectorWrongSize(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := NewNetwork(NewConv2D(1, 2, 3, 1, 1, rng), NewBatchNorm2D(2))
	if err := n.SetStateVector(make([]float64, 3)); err == nil {
		t.Error("short state vector accepted")
	}
	if err := n.SetStateVector(make([]float64, len(n.StateVector())+1)); err == nil {
		t.Error("long state vector accepted")
	}
}

func TestStateVectorNoStatefulLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := NewNetwork(NewDense(2, 2, rng))
	if n.StateSize() != 0 {
		t.Errorf("Dense-only network has state size %d, want 0", n.StateSize())
	}
	sv := n.StateVector()
	if len(sv) != n.NumParams() {
		t.Errorf("state vector length %d, want %d", len(sv), n.NumParams())
	}
	if err := n.SetStateVector(sv); err != nil {
		t.Fatal(err)
	}
}

// naiveConv2D is an independent direct-loop convolution used as a reference
// implementation to cross-check the im2col kernels.
func naiveConv2D(x, w *tensor.Tensor, bias []float64, stride, pad int) *tensor.Tensor {
	n, inC, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outC, k := w.Dim(0), w.Dim(2)
	oh := (h+2*pad-k)/stride + 1
	ow := (wd+2*pad-k)/stride + 1
	out := tensor.New(n, outC, oh, ow)
	for i := 0; i < n; i++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					sum := bias[oc]
					for ic := 0; ic < inC; ic++ {
						for ky := 0; ky < k; ky++ {
							iy := oy*stride + ky - pad
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								ix := ox*stride + kx - pad
								if ix < 0 || ix >= wd {
									continue
								}
								sum += x.At(i, ic, iy, ix) * w.At(oc, ic, ky, kx)
							}
						}
					}
					out.Set(sum, i, oc, oy, ox)
				}
			}
		}
	}
	return out
}

// Property: the im2col convolution matches the naive reference for random
// shapes, strides and paddings.
func TestQuickConvMatchesNaiveReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		inC := 1 + rng.Intn(3)
		outC := 1 + rng.Intn(4)
		k := 1 + rng.Intn(3)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		size := k + rng.Intn(5) // guarantee at least one output position
		conv := NewConv2D(inC, outC, k, stride, pad, rng)
		x := tensor.New(n, inC, size, size).RandNormal(rng, 0, 1)
		got := conv.Forward(x, true)
		want := naiveConv2D(x, conv.w.W, conv.b.W.Data(), stride, pad)
		return got.ApproxEqual(want, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestConvNetLearnsSeparableData is a capacity sanity check: a small conv
// net must fit a linearly separable image problem nearly perfectly.
func TestConvNetLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	// Class 0: bright top half; class 1: bright bottom half.
	n := 60
	x := tensor.New(n, 1, 6, 6)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 2
		for py := 0; py < 6; py++ {
			for px := 0; px < 6; px++ {
				v := rng.NormFloat64() * 0.1
				if (y[i] == 0 && py < 3) || (y[i] == 1 && py >= 3) {
					v += 1
				}
				x.Set(v, i, 0, py, px)
			}
		}
	}
	net := NewNetwork(
		NewConv2D(1, 4, 3, 1, 1, rng),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(4*3*3, 2, rng),
	)
	// Plain batch gradient descent on cross-entropy (computed inline to
	// keep this package free of loss imports).
	lr := 0.5
	for epoch := 0; epoch < 60; epoch++ {
		logits := net.Forward(x, true)
		probs := tensor.SoftmaxRows(logits, 1)
		grad := probs.Clone()
		for i := 0; i < n; i++ {
			grad.Data()[i*2+y[i]] -= 1
		}
		grad.ScaleInPlace(1 / float64(n))
		net.ZeroGrads()
		net.Backward(grad)
		for _, p := range net.Params() {
			p.W.AXPY(-lr, p.G)
		}
	}
	logits := net.Forward(x, false)
	pred := tensor.ArgMaxRows(logits)
	correct := 0
	for i, p := range pred {
		if p == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.95 {
		t.Errorf("conv net failed to fit separable data: accuracy %g", acc)
	}
}
