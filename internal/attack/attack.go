// Package attack turns unlearning-verification probes into interchangeable
// attack implementations over one registry. An Attack deterministically
// poisons one client's partition before training and builds a Prober
// measuring the attack's success rate on the trained global model; the
// scenario engine sweeps registered attack types as a first-class matrix
// axis, so unlearning efficacy is verified against several poisoning
// styles — the paper's backdoor trigger patch plus label flipping and
// targeted-class feature poisoning — rather than a single trigger style.
package attack

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"goldfish/internal/data"
	"goldfish/internal/nn"
)

// Config parameterizes one attack instance. It is the union of every
// registered type's knobs; each Attack reads the fields it declares and
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
// and NewProber implementations use it so a label outside [0,classes) fails
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

// Attack is a pluggable unlearning-verification probe: it poisons one
// client's partition before training and measures how strongly the trained
// model still carries the poison. Implementations must be stateless — the
// same value may serve concurrent matrix cells — and fully deterministic
// given the Config and the rng.
type Attack interface {
	// Name is the attack's registry name.
	Name() string
	// Validate checks cfg statically; dataset-dependent errors (label out of
	// range, missing class) surface from Poison or NewProber instead.
	Validate(cfg Config) error
	// Poison poisons part in place, drawing all randomness from rng, and
	// returns the poisoned row indices — the deletion set Df an unlearning
	// schedule removes to verify the attack's signal disappears.
	Poison(part *data.Dataset, cfg Config, rng *rand.Rand) ([]int, error)
	// NewProber builds the attack's success-rate probe from the clean test
	// set. The probe must not alias test's backing storage mutably.
	NewProber(test *data.Dataset, cfg Config) (Prober, error)
}

// Prober measures one attack's success rate on a trained model. SuccessRate
// is deterministic for a fixed network and must be safe for concurrent calls
// on distinct networks, so matrix cells can probe in parallel.
type Prober interface {
	// SuccessRate returns the attack success rate in [0,1]: the fraction of
	// probe samples on which the model exhibits the attacker's objective.
	SuccessRate(net *nn.Network) float64
}

// Factory creates a fresh instance of an attack type.
type Factory func() Attack

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds an attack factory under name. Registering a name twice is a
// wiring bug, not a runtime condition, so it panics rather than silently
// replacing the earlier factory. The built-in names are "backdoor" (the
// paper's trigger patch), "label-flip" and "targeted-class".
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("attack: Register with empty name or nil factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("attack: Register called twice for attack type " + name)
	}
	registry[name] = f
}

// New returns a fresh instance of the named attack.
func New(name string) (Attack, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("attack: unknown attack type %q (registered: %v)", name, Types())
	}
	return f(), nil
}

// Types lists the registered attack type names, sorted.
func Types() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("backdoor", func() Attack { return backdoorAttack{} })
	Register("label-flip", func() Attack { return labelFlipAttack{} })
	Register("targeted-class", func() Attack { return targetedClassAttack{} })
}
