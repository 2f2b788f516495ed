package goldfish

import (
	"goldfish/internal/attack"
)

// AttackConfig is the shared knob set every attack probe type reads its
// parameters from (internal/attack). A scenario spec's attack block selects
// the type by name from a fixed table: "backdoor" (the paper's trigger
// patch), "label-flip" or "targeted-class".
type AttackConfig = attack.Config
