package attack

import (
	"fmt"
	"math/rand"

	"goldfish/internal/data"
)

// defaultStrength is the targeted-class feature blend used when the config
// leaves Strength unset.
const defaultStrength = 0.5

// targetedClassAttack poisons one source class towards the target: a random
// fraction of the client's source-class rows have their features blended
// towards the client's target-class centroid (x ← (1−s)·x + s·centroid) and
// are relabeled to the target — a feature-collision-style targeted poisoning.
// A model trained on the poison ties source-class features to the target
// label; success is the fraction of clean source-class test samples the
// model classifies as the target.
type targetedClassAttack struct{}

func (targetedClassAttack) Name() string { return "targeted-class" }

// strength resolves the blend factor default.
func (targetedClassAttack) strength(cfg Config) float64 {
	if cfg.Strength == 0 {
		return defaultStrength
	}
	return cfg.Strength
}

func (targetedClassAttack) Validate(cfg Config) error {
	if err := cfg.validateCommon(); err != nil {
		return err
	}
	if cfg.SourceClass < 0 {
		return fmt.Errorf("attack: source class %d negative", cfg.SourceClass)
	}
	if cfg.SourceClass == cfg.TargetLabel {
		return fmt.Errorf("attack: source class %d equals the target label", cfg.SourceClass)
	}
	if cfg.Strength < 0 || cfg.Strength > 1 {
		return fmt.Errorf("attack: strength %g out of [0,1] (0 selects the default %g)", cfg.Strength, defaultStrength)
	}
	return nil
}

func (t targetedClassAttack) Poison(part *data.Dataset, cfg Config, rng *rand.Rand) ([]int, error) {
	if err := classLabel("target label", cfg.TargetLabel, part.Classes); err != nil {
		return nil, err
	}
	if err := classLabel("source class", cfg.SourceClass, part.Classes); err != nil {
		return nil, err
	}
	targets := part.RowsOfClass(cfg.TargetLabel)
	if len(targets) == 0 {
		return nil, fmt.Errorf("attack: client has no rows of target class %d to derive the poison direction", cfg.TargetLabel)
	}
	sources := part.RowsOfClass(cfg.SourceClass)
	if len(sources) == 0 {
		return nil, fmt.Errorf("attack: client has no rows of source class %d to poison", cfg.SourceClass)
	}
	// The poison direction is the client's own target-class centroid,
	// computed before any perturbation (only source rows are modified).
	c, h, w := part.Shape()
	size := c * h * w
	xd := part.X.Data()
	centroid := make([]float64, size)
	for _, r := range targets {
		row := xd[r*size : (r+1)*size]
		for i, v := range row {
			centroid[i] += v
		}
	}
	for i := range centroid {
		centroid[i] /= float64(len(targets))
	}
	n := int(float64(len(sources)) * cfg.Fraction)
	if n == 0 {
		n = 1
	}
	s := t.strength(cfg)
	perm := rng.Perm(len(sources))[:n]
	rows := make([]int, n)
	for i, p := range perm {
		r := sources[p]
		rows[i] = r
		row := xd[r*size : (r+1)*size]
		for j := range row {
			// The explicit conversions force intermediate rounding so the
			// blend cannot compile to a fused multiply-add, which would make
			// poisoned bytes differ between FMA and non-FMA architectures.
			row[j] = float64((1-s)*row[j]) + float64(s*centroid[j])
		}
		part.Y[r] = cfg.TargetLabel
	}
	return rows, nil
}

func (targetedClassAttack) NewProbe(test *data.Dataset, cfg Config) (Probe, error) {
	if err := classLabel("target label", cfg.TargetLabel, test.Classes); err != nil {
		return Probe{}, err
	}
	if err := classLabel("source class", cfg.SourceClass, test.Classes); err != nil {
		return Probe{}, err
	}
	keep := test.RowsOfClass(cfg.SourceClass)
	if len(keep) == 0 {
		return Probe{}, fmt.Errorf("attack: no test samples of source class %d to probe", cfg.SourceClass)
	}
	return Probe{Rows: test.Subset(keep), Target: cfg.TargetLabel}, nil
}
