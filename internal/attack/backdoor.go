package attack

import (
	"fmt"
	"math/rand"

	"goldfish/internal/data"
)

// backdoorAttack is the paper's verification probe (§IV-A, following Wu et
// al. [34]): a bright square patch stamped in the image corner, with the
// poisoned rows relabeled to the target class. Success is the fraction of
// trigger-stamped clean test samples (true label ≠ target) the model
// classifies as the target.
type backdoorAttack struct{}

func (backdoorAttack) Name() string { return "backdoor" }

// config resolves the patch defaults the experiments use.
func (backdoorAttack) config(cfg Config) data.BackdoorConfig {
	bd := data.BackdoorConfig{
		TargetLabel: cfg.TargetLabel,
		PatchSize:   cfg.PatchSize,
		PatchValue:  cfg.PatchValue,
	}
	if bd.PatchSize == 0 {
		bd.PatchSize = data.DefaultBackdoor().PatchSize
	}
	if bd.PatchValue == 0 {
		bd.PatchValue = data.DefaultBackdoor().PatchValue
	}
	return bd
}

func (backdoorAttack) Validate(cfg Config) error {
	if err := cfg.validateCommon(); err != nil {
		return err
	}
	if cfg.PatchSize < 0 {
		return fmt.Errorf("attack: patch size %d negative", cfg.PatchSize)
	}
	return nil
}

func (b backdoorAttack) Poison(part *data.Dataset, cfg Config, rng *rand.Rand) ([]int, error) {
	return b.config(cfg).Poison(part, cfg.Fraction, rng)
}

func (b backdoorAttack) NewProbe(test *data.Dataset, cfg Config) (Probe, error) {
	triggered, err := b.config(cfg).TriggerCopy(test)
	if err != nil {
		return Probe{}, err
	}
	return Probe{Rows: triggered, Target: cfg.TargetLabel}, nil
}
