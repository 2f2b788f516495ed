package attack

import (
	"fmt"
	"math/rand"

	"goldfish/internal/data"
)

// labelFlipAttack relabels a random fraction of the poisoned client's
// non-target rows to the target label, leaving the features untouched — the
// classic data-poisoning probe of the federated-unlearning literature. A
// model trained on the flip over-predicts the target class; success is the
// fraction of clean test samples with a different true label the model
// classifies as the target, so a clean (or well-unlearned) model scores near
// zero.
type labelFlipAttack struct{}

func (labelFlipAttack) Name() string { return "label-flip" }

func (labelFlipAttack) Validate(cfg Config) error {
	return cfg.validateCommon()
}

func (labelFlipAttack) Poison(part *data.Dataset, cfg Config, rng *rand.Rand) ([]int, error) {
	if err := classLabel("target label", cfg.TargetLabel, part.Classes); err != nil {
		return nil, err
	}
	// Only rows whose label actually changes count as poison: flipping a row
	// already labelled target would be a no-op in the deletion set.
	var candidates []int
	for i, y := range part.Y {
		if y != cfg.TargetLabel {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("attack: every row already has the target label %d", cfg.TargetLabel)
	}
	n := int(float64(len(candidates)) * cfg.Fraction)
	if n == 0 {
		n = 1
	}
	perm := rng.Perm(len(candidates))[:n]
	rows := make([]int, n)
	for i, p := range perm {
		rows[i] = candidates[p]
		part.Y[candidates[p]] = cfg.TargetLabel
	}
	return rows, nil
}

func (labelFlipAttack) NewProbe(test *data.Dataset, cfg Config) (Probe, error) {
	if err := classLabel("target label", cfg.TargetLabel, test.Classes); err != nil {
		return Probe{}, err
	}
	var keep []int
	for i, y := range test.Y {
		if y != cfg.TargetLabel {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		return Probe{}, fmt.Errorf("attack: every test sample has the target label %d", cfg.TargetLabel)
	}
	return Probe{Rows: test.Subset(keep), Target: cfg.TargetLabel}, nil
}
