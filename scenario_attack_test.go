package goldfish

import (
	"context"
	"strings"
	"testing"

	"goldfish/internal/scenario"
)

// attackSweepSpec is a 3-probe sweep over the given unlearning
// strategies: poison embeds for 4 rounds, the poisoned rows are deleted, and
// 2 recovery rounds follow.
func attackSweepSpec(strategies []string) ScenarioSpec {
	return ScenarioSpec{
		Name:    "efficacy",
		Dataset: "mnist",
		Scale:   "tiny",
		Clients: 3,
		Rounds:  6,
		Attack: &scenario.AttackSpec{
			Types:       []string{"backdoor", "label-flip", "targeted-class"},
			Client:      0,
			Fraction:    0.5,
			TargetLabel: 0,
			SourceClass: 1,
			Strength:    0.6,
		},
		Schedule: []scenario.DeletionSpec{
			{Round: 4, Type: scenario.DeleteSample, Client: 0, Target: scenario.TargetPoisoned},
		},
		Strategies: strategies,
		Seeds:      []int64{1},
	}
}

// TestAttackRegistryPublicSurface locks the attack-probe registry API:
// the built-in probe styles are registered, NewAttack resolves them, and a
// custom probe registered via RegisterAttack becomes selectable by scenario
// specs.
func TestAttackRegistryPublicSurface(t *testing.T) {
	types := AttackTypes()
	for _, want := range []string{"backdoor", "label-flip", "targeted-class"} {
		found := false
		for _, got := range types {
			found = found || got == want
		}
		if !found {
			t.Errorf("AttackTypes() = %v, missing %q", types, want)
		}
	}
	a, err := NewAttack("label-flip")
	if err != nil || a.Name() != "label-flip" {
		t.Fatalf("NewAttack(label-flip) = %v, %v", a, err)
	}
	if _, err := NewAttack("no-such-probe"); err == nil {
		t.Error("NewAttack accepted an unknown probe")
	}
	RegisterAttack("custom-probe", func() Attack { a, _ := NewAttack("label-flip"); return a })
	spec := attackSweepSpec([]string{"goldfish"})
	spec.Attack.Types = []string{"custom-probe"}
	if err := ValidateScenario(spec); err != nil {
		t.Errorf("spec selecting a registered custom probe rejected: %v", err)
	}
}

// TestUnlearningDropsEveryAttackProbe is the paper's efficacy claim as a
// unit test, broadened across probe styles: for EVERY (attack type ×
// strategy) pair on the tiny smoke preset, the attack success rate measured
// by that attack's own probe must fall below a threshold after the poisoned
// rows are unlearned — and any attack that took hold (pre-deletion success
// ≥ 0.3) must lose at least half its success rate. The matrix is fully
// seeded, so these are exact deterministic bounds, not statistical ones.
func TestUnlearningDropsEveryAttackProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a 12-cell matrix")
	}
	const postThreshold = 0.2
	spec := attackSweepSpec([]string{"fisher", "goldfish", "incompetent-teacher", "retrain"})
	rep, err := RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Complete(); err != nil {
		t.Fatal(err)
	}
	if want := len(spec.Strategies) * 3; len(rep.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), want)
	}
	embedded := 0
	for _, c := range rep.Cells {
		name := c.Strategy + "/" + c.Attack
		if c.PreDeletionASR == nil || c.ASR == nil {
			t.Errorf("%s: missing attack success rates: pre=%v post=%v", name, c.PreDeletionASR, c.ASR)
			continue
		}
		pre, post := *c.PreDeletionASR, *c.ASR
		if post > postThreshold {
			t.Errorf("%s: post-unlearning success rate %.4f above threshold %g (pre %.4f)",
				name, post, postThreshold, pre)
		}
		if pre >= 0.3 {
			embedded++
			if post >= pre/2 {
				t.Errorf("%s: success rate only fell %.4f → %.4f; unlearning must at least halve an embedded attack",
					name, pre, post)
			}
		}
	}
	// The test is vacuous unless some attacks actually took hold before the
	// deletion; the backdoor embeds on every strategy at these settings.
	if embedded < len(spec.Strategies) {
		t.Errorf("only %d cells embedded their attack (pre ≥ 0.3); expected at least the %d backdoor cells",
			embedded, len(spec.Strategies))
	}
}

// TestPreDeletionASRSurvivesMidRunDeletion is the ASR-resurfacing
// regression test: when an attack is configured and a deletion schedule
// removes the poisoned rows mid-run, the report must carry BOTH snapshots —
// PreDeletionASR (the probe before the deletion fired) and ASR (after) —
// for every attack type, and the nil-guarded ASR paths in report rendering
// and diffing must handle the per-type probes without panicking.
func TestPreDeletionASRSurvivesMidRunDeletion(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a 3-cell matrix")
	}
	spec := attackSweepSpec([]string{"goldfish"})
	spec.Rounds = 3
	spec.Schedule[0].Round = 2
	rep, err := RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Complete(); err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if c.PreDeletionASR == nil {
			t.Errorf("%s/%s: PreDeletionASR is nil despite a configured attack and a mid-run poisoned deletion",
				c.Strategy, c.Attack)
		}
		if c.ASR == nil {
			t.Errorf("%s/%s: ASR is nil despite a configured attack", c.Strategy, c.Attack)
		}
		if c.RemovedRows == 0 {
			t.Errorf("%s/%s: deletion schedule removed nothing", c.Strategy, c.Attack)
		}
	}
	var sb strings.Builder
	rep.RenderText(&sb)
	for _, typ := range spec.AttackList() {
		if !strings.Contains(sb.String(), typ) {
			t.Errorf("RenderText omits attack %q:\n%s", typ, sb.String())
		}
	}
	// Self-diff exercises the nil-guarded ASR delta and per-attack grouping
	// paths; a report diffed against itself must never regress.
	d, err := DiffScenarioReports(rep, rep, ScenarioDiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.HasRegressions() {
		t.Errorf("self-diff regressed: %+v", d.Regressions())
	}
	asrTests := 0
	for _, mt := range d.Tests {
		if mt.Metric == scenario.MetricASR && mt.Attack != "" {
			asrTests++
		}
	}
	if asrTests != 3 {
		t.Errorf("diff ran %d per-attack ASR tests, want 3 (one per probe style)", asrTests)
	}
}
