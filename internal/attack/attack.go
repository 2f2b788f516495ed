// Package attack turns unlearning-verification probes into interchangeable
// attack types over one fixed name table. An Attack deterministically
// poisons one client's partition before training and builds a Probe — the
// rows and the label on which the attack's success rate is read from the
// trained global model; the scenario engine sweeps attack types as a
// first-class matrix axis, so unlearning efficacy is verified against
// several poisoning styles — the paper's backdoor trigger patch plus label
// flipping and targeted-class feature poisoning — rather than a single
// trigger style.
package attack

import (
	"fmt"
	"math/rand"
	"strings"

	"goldfish/internal/data"
)

// Config parameterizes one attack instance. It is the union of every
// attack type's knobs; each Attack reads the fields it declares and
// ignores the rest, so one Config can sweep several attack types.
type Config struct {
	// Fraction of the poisoned client's eligible rows to poison, in (0,1].
	Fraction float64
	// TargetLabel is the class the attack drives predictions towards.
	TargetLabel int
	// PatchSize is the backdoor trigger patch side length (0 = default).
	PatchSize int
	// PatchValue is the backdoor trigger pixel value (0 = default).
	PatchValue float64
	// SourceClass is the class the targeted-class attack perturbs.
	SourceClass int
	// Strength is the targeted-class feature blend in (0,1] (0 = default).
	Strength float64
}

// classLabel checks a class label against a dataset's class count. Poison
// and NewProbe implementations use it so a label outside [0,classes) fails
// loudly even when a caller skips Validate — a probe whose target can never
// match a prediction would read as perfect unlearning.
func classLabel(name string, label, classes int) error {
	if label < 0 || label >= classes {
		return fmt.Errorf("attack: %s %d out of range [0,%d)", name, label, classes)
	}
	return nil
}

// validateCommon checks the knobs every attack type shares.
func (c Config) validateCommon() error {
	if c.Fraction <= 0 || c.Fraction > 1 {
		return fmt.Errorf("attack: fraction %g out of (0,1]", c.Fraction)
	}
	if c.TargetLabel < 0 {
		return fmt.Errorf("attack: target label %d negative", c.TargetLabel)
	}
	return nil
}

// Attack is one unlearning-verification probe style: it poisons one
// client's partition before training and says on which rows the trained
// model still shows the poison. Implementations are stateless values — one
// serves every concurrent matrix cell — and fully deterministic given the
// Config and the rng.
type Attack interface {
	// Name is the attack's name in the type table.
	Name() string
	// Validate checks cfg statically; dataset-dependent errors (label out of
	// range, missing class) surface from Poison or NewProbe instead.
	Validate(cfg Config) error
	// Poison poisons part in place, drawing all randomness from rng, and
	// returns the poisoned row indices — the deletion set Df an unlearning
	// schedule removes to verify the attack's signal disappears.
	Poison(part *data.Dataset, cfg Config, rng *rand.Rand) ([]int, error)
	// NewProbe builds the attack's success-rate probe from the clean test
	// set. The probe's rows share no mutable storage with test.
	NewProbe(test *data.Dataset, cfg Config) (Probe, error)
}

// Probe is an attack's success-rate probe as data: the rows the trained
// model is read on and the label that counts as the attacker's success. The
// success rate is the share of Rows the model predicts as Target
// (metrics.AttackSuccessRate), one forward pass over Rows. The rows differ
// per attack — trigger-stamped non-target samples for the backdoor, clean
// non-target samples for label flipping, clean source-class samples for
// targeted-class poisoning.
type Probe struct {
	Rows   *data.Dataset
	Target int
}

// attacks is the fixed table of attack types, in the order Types lists
// them. A new type is one entry here.
var attacks = []Attack{backdoorAttack{}, labelFlipAttack{}, targetedClassAttack{}}

// Lookup returns the named attack type: "backdoor" (the paper's trigger
// patch), "label-flip" or "targeted-class".
func Lookup(name string) (Attack, error) {
	for _, a := range attacks {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("attack: unknown attack type %q (known: %s)", name, strings.Join(Types(), ", "))
}

// Types lists the attack type names in table order.
func Types() []string {
	names := make([]string, len(attacks))
	for i, a := range attacks {
		names[i] = a.Name()
	}
	return names
}
