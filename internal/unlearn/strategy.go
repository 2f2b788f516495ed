// Package unlearn runs a federated-unlearning Federation over one
// core.Procedure. The Federation owns the shared round engine
// (internal/fed), its core.Client participants, the deletion lifecycle and
// dynamic membership. The paper's Goldfish procedure and its three
// baselines (B1 retrain-from-scratch, B2 Fisher rapid retraining, B3
// incompetent teacher) are core.Procedure values, each known here under a
// stable strategy name, so every entry point — the public API, the
// benchmark harness, the CLI tools — selects an unlearning method the same
// way.
package unlearn

import (
	"fmt"
	"strings"

	"goldfish/internal/core"
)

// strategies maps each strategy name to the procedure it runs, in the
// order an unknown-name error lists them.
var strategies = []struct {
	name string
	proc core.Procedure
}{
	{"goldfish", core.Goldfish},
	{"retrain", core.Retrain},
	{"fisher", core.Fisher},
	{"incompetent-teacher", core.IncompetentTeacher},
}

// Procedure returns the procedure the named strategy runs: "goldfish" (the
// paper's procedure), "retrain" (B1), "fisher" (B2) or
// "incompetent-teacher" (B3).
func Procedure(name string) (core.Procedure, error) {
	names := make([]string, len(strategies))
	for i, s := range strategies {
		if s.name == name {
			return s.proc, nil
		}
		names[i] = s.name
	}
	return core.Procedure{}, fmt.Errorf("unlearn: unknown strategy %q (known: %s)", name, strings.Join(names, ", "))
}
