package optim

import (
	"math"
	"math/rand"
	"testing"

	"goldfish/internal/nn"
	"goldfish/internal/tensor"
)

func TestSGDConfigValidate(t *testing.T) {
	good := SGDConfig{LR: 0.1, Momentum: 0.9}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []SGDConfig{
		{LR: 0},
		{LR: -1},
		{LR: 0.1, Momentum: 1},
		{LR: 0.1, Momentum: -0.1},
		{LR: 0.1, WeightDecay: -1},
		{LR: 0.1, ClipNorm: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c)
		}
	}
	if _, err := NewSGD(SGDConfig{}); err == nil {
		t.Error("NewSGD with zero LR should fail")
	}
}

// trainQuadratic runs SGD on L = ½‖w − target‖² and returns the final
// distance to the target.
func trainQuadratic(t *testing.T, cfg SGDConfig, steps int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	net := nn.NewNetwork(nn.NewDense(1, 4, rng))
	target := []float64{1, -2, 3, 0.5, 0, 0, 0, 0} // weights then biases
	opt, err := NewSGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := net.Params()
	for s := 0; s < steps; s++ {
		net.ZeroGrads()
		i := 0
		for _, p := range params {
			for j := range p.W.Data() {
				p.G.Data()[j] = p.W.Data()[j] - target[i]
				i++
			}
		}
		opt.Step(params)
	}
	var dist float64
	i := 0
	for _, p := range params {
		for _, w := range p.W.Data() {
			d := w - target[i]
			dist += d * d
			i++
		}
	}
	return math.Sqrt(dist)
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	final := trainQuadratic(t, SGDConfig{LR: 0.1}, 200)
	if final > 1e-6 {
		t.Errorf("SGD did not converge: final distance %g", final)
	}
}

func TestMomentumAccelerates(t *testing.T) {
	plain := trainQuadratic(t, SGDConfig{LR: 0.02}, 60)
	mom := trainQuadratic(t, SGDConfig{LR: 0.02, Momentum: 0.9}, 60)
	if mom >= plain {
		t.Errorf("momentum (%g) should beat plain SGD (%g) at equal budget", mom, plain)
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := nn.NewNetwork(nn.NewDense(2, 2, rng))
	before := tensor.FromSlice(net.ParamVector(), net.NumParams()).L2Norm()
	opt, err := NewSGD(SGDConfig{LR: 0.1, WeightDecay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		net.ZeroGrads() // zero task gradient; only decay acts
		opt.Step(net.Params())
	}
	after := tensor.FromSlice(net.ParamVector(), net.NumParams()).L2Norm()
	if after >= before/2 {
		t.Errorf("weight decay should shrink weights: %g → %g", before, after)
	}
}

func TestClipNormBoundsStep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := nn.NewNetwork(nn.NewDense(4, 4, rng))
	before := net.ParamVector()
	opt, err := NewSGD(SGDConfig{LR: 1, ClipNorm: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Huge gradient.
	for _, p := range net.Params() {
		p.G.Fill(100)
	}
	opt.Step(net.Params())
	after := net.ParamVector()
	var move float64
	for i := range before {
		d := after[i] - before[i]
		move += d * d
	}
	move = math.Sqrt(move)
	// With LR=1 and clip 0.5, the step norm must be ≤ 0.5 (plus epsilon).
	if move > 0.5+1e-9 {
		t.Errorf("clipped step moved %g, want ≤ 0.5", move)
	}
}

func TestGradNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := nn.NewNetwork(nn.NewDense(1, 2, rng))
	for _, p := range net.Params() {
		p.G.Fill(3)
	}
	// 2 weights + 2 biases = 4 values of 3 → norm = sqrt(4*9) = 6.
	if got := GradNorm(net.Params()); math.Abs(got-6) > 1e-12 {
		t.Errorf("GradNorm = %g, want 6", got)
	}
}

func TestSGDReset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := nn.NewNetwork(nn.NewDense(1, 1, rng))
	opt, err := NewSGD(SGDConfig{LR: 0.1, Momentum: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	net.Params()[0].G.Fill(1)
	opt.Step(net.Params())
	opt.Reset()
	// After reset, a zero-gradient step must not move weights (no stale
	// velocity).
	w := net.Params()[0].W.Data()[0]
	net.ZeroGrads()
	opt.Step(net.Params())
	if net.Params()[0].W.Data()[0] != w {
		t.Error("stale velocity applied after Reset")
	}
}

func TestEarlyStopper(t *testing.T) {
	es, err := NewEarlyStopper(0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if es.ShouldStop() {
		t.Error("should not stop before any observation")
	}
	if !math.IsInf(es.ExcessRisk(), 1) {
		t.Error("excess risk should be +Inf with no data")
	}
	es.Observe(2.0)
	if es.ShouldStop() {
		t.Error("|2.0 − 0.5| = 1.5 > 0.1 must not stop")
	}
	// Pull the running mean towards the reference.
	for i := 0; i < 20; i++ {
		es.Observe(0.45)
	}
	if got := es.ExcessRisk(); got > 0.1 {
		t.Fatalf("excess risk %g should be within 0.1 after convergence", got)
	}
	if !es.ShouldStop() {
		t.Error("should stop once within delta")
	}
	if es.Epochs() != 21 {
		t.Errorf("Epochs = %d, want 21", es.Epochs())
	}
}

func TestEarlyStopperValidation(t *testing.T) {
	if _, err := NewEarlyStopper(-1, 0); err == nil {
		t.Error("negative delta should fail")
	}
}
