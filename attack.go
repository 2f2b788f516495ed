package goldfish

import (
	"goldfish/internal/attack"
)

// Attack types re-exported from the pluggable attack-probe registry
// (internal/attack): an Attack deterministically poisons one client's
// partition before training and builds an AttackProber measuring the
// attack's success rate on the trained model — the verification probe the
// scenario engine sweeps as a matrix axis. The built-in registry names are
// "backdoor" (the paper's trigger patch), "label-flip" and "targeted-class".
type (
	// Attack is a pluggable unlearning-verification probe; select one in a
	// scenario spec's attack.type (or sweep several via attack.types) and
	// add custom probes with RegisterAttack.
	Attack = attack.Attack
	// AttackProber measures an attack's success rate on a trained model.
	AttackProber = attack.Prober
	// AttackConfig is the shared knob set every attack type reads its
	// parameters from.
	AttackConfig = attack.Config
)

// RegisterAttack adds an attack factory to the attack-probe registry under
// name. Registering a name twice panics — pick a unique name per probe.
// Scenario specs then select it via attack.type or attack.types.
func RegisterAttack(name string, factory func() Attack) {
	attack.Register(name, factory)
}

// AttackTypes lists the registered attack-probe names, sorted.
func AttackTypes() []string { return attack.Types() }

// NewAttack returns a fresh instance of the named attack probe.
func NewAttack(name string) (Attack, error) { return attack.New(name) }
