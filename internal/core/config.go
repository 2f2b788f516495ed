// Package core implements the Goldfish federated-unlearning framework
// (paper §III, Algorithm 1). It wires the four modules together:
//
//   - basic model: teacher/student knowledge distillation, where the
//     previous global model teaches a freshly initialized student on the
//     remaining data only;
//   - loss function: the composite objective of internal/loss (hard +
//     confusion + distillation);
//   - optimization: early termination guided by excess empirical risk
//     (Eq. 7);
//   - extension: adaptive distillation temperature (Eq. 11) and
//     adaptive-weight aggregation (Eqs. 12–13, internal/fed).
//
// Each Client owns one participant's local data, models and unlearning
// state, and trains under a Procedure: Goldfish, or one of the paper's
// baselines (Retrain, Fisher, IncompetentTeacher), which are the same
// client loop with a different teacher, retain loss, forget step, stepper
// and optimizer lifetime. Client implements fed.LocalTrainer, so clients
// run unchanged over the in-process transport, the TCP transport, and the
// Federation of internal/unlearn, which runs one Procedure by name and owns
// the server side: round loop, aggregation, deletion broadcasts.
package core

import (
	"fmt"
	"math"

	"goldfish/internal/loss"
	"goldfish/internal/model"
	"goldfish/internal/optim"
)

// Config configures a Goldfish client (shared by every client of a
// federation).
type Config struct {
	// Model describes the architecture every participant trains.
	Model model.Config
	// Loss is the composite Goldfish objective.
	Loss loss.Goldfish
	// Opt configures local SGD (paper: η=0.001, β=0.9).
	Opt optim.SGDConfig
	// LocalEpochs is n, the local epochs per round. Must be positive.
	LocalEpochs int
	// BatchSize is the local mini-batch size (paper: 100). Must be
	// positive.
	BatchSize int
	// EarlyDelta is δ of Eq. 7; 0 disables early termination.
	EarlyDelta float64
	// AdaptiveTemp enables the Eq. 11 adaptive distillation temperature.
	AdaptiveTemp bool
	// TempAlpha is α of Eq. 11 (default 1 when AdaptiveTemp is set).
	TempAlpha float64
	// Seed drives all client-local randomness.
	Seed int64
}

// DefaultConfig returns the paper's hyperparameters (§IV-A) on the given
// model: batch size 100, η=0.001, β=0.9, T=3, µd=1.0, µc=0.25.
func DefaultConfig(m model.Config) Config {
	return Config{
		Model:       m,
		Loss:        loss.NewGoldfish(),
		Opt:         optim.SGDConfig{LR: 0.001, Momentum: 0.9, ClipNorm: 5},
		LocalEpochs: 2,
		BatchSize:   100,
		EarlyDelta:  0,
		TempAlpha:   1,
		Seed:        1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Loss.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Opt.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.LocalEpochs <= 0 {
		return fmt.Errorf("core: LocalEpochs must be positive, got %d", c.LocalEpochs)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("core: BatchSize must be positive, got %d", c.BatchSize)
	}
	if c.EarlyDelta < 0 {
		return fmt.Errorf("core: negative EarlyDelta %g", c.EarlyDelta)
	}
	if c.AdaptiveTemp && c.TempAlpha <= 0 {
		return fmt.Errorf("core: AdaptiveTemp requires positive TempAlpha, got %g", c.TempAlpha)
	}
	return nil
}

// AdaptiveTemperature implements Eq. 11:
//
//	T = α·T0·exp(−|Dr| / (|Dr| + |Df|))
//
// clamped below at 1, since the paper notes soft labels degrade into hard
// labels at T ≤ 1.
func AdaptiveTemperature(alpha, t0 float64, numRemaining, numRemoved int) float64 {
	total := numRemaining + numRemoved
	if total == 0 {
		return math.Max(1, alpha*t0)
	}
	t := alpha * t0 * math.Exp(-float64(numRemaining)/float64(total))
	if t < 1 {
		return 1
	}
	return t
}
