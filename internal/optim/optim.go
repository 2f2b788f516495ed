// Package optim provides the training machinery for the Goldfish
// reproduction: SGD with momentum (the paper trains with η=0.001, β=0.9),
// global-norm gradient clipping, learning-rate schedules, and the paper's
// early-termination mechanism guided by excess empirical risk (Eq. 7).
package optim

import (
	"fmt"
	"math"

	"goldfish/internal/nn"
)

// SGDConfig configures an SGD optimizer.
type SGDConfig struct {
	// LR is the learning rate. Must be positive.
	LR float64
	// Momentum is the classical momentum coefficient β (0 disables it).
	Momentum float64
	// WeightDecay is the L2 penalty coefficient (0 disables it).
	WeightDecay float64
	// ClipNorm caps the global gradient norm before each step (0 disables
	// clipping). The unlearning objective contains a gradient-ascent term
	// on removed data, so clipping keeps steps bounded.
	ClipNorm float64
}

// Validate reports configuration errors.
func (c SGDConfig) Validate() error {
	if c.LR <= 0 {
		return fmt.Errorf("optim: learning rate must be positive, got %g", c.LR)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("optim: momentum must be in [0,1), got %g", c.Momentum)
	}
	if c.WeightDecay < 0 {
		return fmt.Errorf("optim: negative weight decay %g", c.WeightDecay)
	}
	if c.ClipNorm < 0 {
		return fmt.Errorf("optim: negative clip norm %g", c.ClipNorm)
	}
	return nil
}

// SGD is a stochastic-gradient-descent optimizer with momentum. One SGD
// instance serves one network; velocity buffers are allocated lazily to
// match the parameter layout.
type SGD struct {
	cfg SGDConfig
	vel [][]float64
}

// NewSGD returns an optimizer with the given configuration.
func NewSGD(cfg SGDConfig) (*SGD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &SGD{cfg: cfg}, nil
}

// Step applies one update to the parameters using their accumulated
// gradients, then leaves the gradients untouched (callers usually follow
// with ZeroGrads). Velocity buffers are created on first use.
func (s *SGD) Step(params []*nn.Param) {
	if s.vel == nil {
		s.vel = make([][]float64, len(params))
		for i, p := range params {
			s.vel[i] = make([]float64, p.W.Size())
		}
	}
	if len(s.vel) != len(params) {
		panic(fmt.Sprintf("optim: SGD bound to %d params, got %d", len(s.vel), len(params)))
	}

	scale := 1.0
	if s.cfg.ClipNorm > 0 {
		norm := GradNorm(params)
		if norm > s.cfg.ClipNorm {
			scale = s.cfg.ClipNorm / norm
		}
	}

	for i, p := range params {
		w, g, v := p.W.Data(), p.G.Data(), s.vel[i]
		for j := range w {
			grad := g[j] * scale
			if s.cfg.WeightDecay > 0 {
				grad += s.cfg.WeightDecay * w[j]
			}
			v[j] = s.cfg.Momentum*v[j] - s.cfg.LR*grad
			w[j] += v[j]
		}
	}
}

// Reset clears the momentum state (used when the student model is
// re-initialized for a new unlearning round).
func (s *SGD) Reset() { s.vel = nil }

// GradNorm returns the global L2 norm of all parameter gradients.
func GradNorm(params []*nn.Param) float64 {
	var sum float64
	for _, p := range params {
		for _, g := range p.G.Data() {
			sum += g * g
		}
	}
	return math.Sqrt(sum)
}

// EarlyStopper implements the paper's early-termination mechanism (Eq. 7).
// During local training it records the loss of each local epoch; training
// may stop once the excess empirical risk
//
//	err = |mean_i L(ωᶜ(i)) − L(ω^{t−1})|
//
// drops to at most Delta, where L(ω^{t−1}) is the reference loss of the
// previous global model on the same data.
type EarlyStopper struct {
	// Delta is the stopping threshold δ. Must be non-negative.
	Delta float64
	// RefLoss is L(ω^{t−1}), the previous global model's loss.
	RefLoss float64

	losses []float64
}

// NewEarlyStopper creates a stopper with threshold delta against refLoss.
func NewEarlyStopper(delta, refLoss float64) (*EarlyStopper, error) {
	if delta < 0 {
		return nil, fmt.Errorf("optim: early-termination threshold must be ≥ 0, got %g", delta)
	}
	return &EarlyStopper{Delta: delta, RefLoss: refLoss}, nil
}

// Observe records the loss of one completed local epoch.
func (e *EarlyStopper) Observe(loss float64) { e.losses = append(e.losses, loss) }

// ExcessRisk returns |mean(observed) − RefLoss|, or +Inf before any
// observation.
func (e *EarlyStopper) ExcessRisk() float64 {
	if len(e.losses) == 0 {
		return math.Inf(1)
	}
	var s float64
	for _, l := range e.losses {
		s += l
	}
	return math.Abs(s/float64(len(e.losses)) - e.RefLoss)
}

// ShouldStop reports whether the excess empirical risk is within Delta.
func (e *EarlyStopper) ShouldStop() bool { return e.ExcessRisk() <= e.Delta }

// Epochs returns how many losses have been observed.
func (e *EarlyStopper) Epochs() int { return len(e.losses) }
