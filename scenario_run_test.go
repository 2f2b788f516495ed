package goldfish

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"goldfish/internal/scenario"
)

// tinyScenario is a fast 2-strategy × 2-seed matrix with a backdoor attack
// and a sample-level deletion, the smallest spec that exercises attack
// injection, the schedule, and the retrain-reference comparison.
func tinyScenario() ScenarioSpec {
	return ScenarioSpec{
		Name:    "unit",
		Dataset: "mnist",
		Scale:   "tiny",
		Clients: 3,
		Rounds:  3,
		Attack:  &scenario.AttackSpec{Type: "backdoor", Client: 0, Fraction: 0.3, TargetLabel: 0},
		Schedule: []scenario.DeletionSpec{
			{Round: 2, Type: scenario.DeleteSample, Client: 0, Target: scenario.TargetPoisoned},
		},
		Strategies: []string{"goldfish", "retrain"},
		Seeds:      []int64{1, 2},
	}
}

func TestRunScenarioMatrixDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a 4-cell matrix")
	}
	ctx := context.Background()
	spec := tinyScenario()
	rep, err := RunScenario(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Complete(); err != nil {
		t.Fatalf("matrix incomplete: %v", err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Rounds != 3 {
			t.Errorf("%s/seed %d ran %d rounds, want 3", c.Strategy, c.Seed, c.Rounds)
		}
		if c.RemovedRows == 0 {
			t.Errorf("%s/seed %d removed no rows", c.Strategy, c.Seed)
		}
		if c.Accuracy <= 0 {
			t.Errorf("%s/seed %d accuracy %g", c.Strategy, c.Seed, c.Accuracy)
		}
		if c.ASR == nil || c.PreDeletionASR == nil || c.PreDeletionAccuracy == nil {
			t.Errorf("%s/seed %d missing attack metrics: %+v", c.Strategy, c.Seed, c)
		}
		if c.MembershipGap == nil {
			t.Errorf("%s/seed %d missing membership gap", c.Strategy, c.Seed)
		}
		if c.Strategy == "goldfish" && c.VsRetrain == nil {
			t.Errorf("goldfish/seed %d missing retrain comparison", c.Seed)
		}
		if c.Strategy == "retrain" && c.VsRetrain != nil {
			t.Errorf("retrain/seed %d compared against itself", c.Seed)
		}
	}
	// Cells of one seed share data and poisoning, so the pre-deletion
	// metrics may differ only through the strategy's training — but the two
	// SEEDS must differ somewhere or the seed axis is dead.
	if *rep.Cells[0].PreDeletionAccuracy == *rep.Cells[1].PreDeletionAccuracy &&
		rep.Cells[0].Accuracy == rep.Cells[1].Accuracy {
		t.Error("seeds 1 and 2 produced identical goldfish cells; seed axis is not wired through")
	}

	a, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance bar: a second run of the same spec is byte-identical.
	rep2, err := RunScenario(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep2.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two runs of the same spec produced different report bytes")
	}
}

func TestRunScenarioRecordsCellFailures(t *testing.T) {
	// B3 keeps the global model on a deletion, so it refuses a client's
	// departure: its cell fails at run time while the goldfish cell runs on.
	spec := tinyScenario()
	spec.Strategies = []string{"goldfish", "incompetent-teacher"}
	spec.Schedule = []scenario.DeletionSpec{{Round: 1, Type: scenario.DeleteClient, Client: 1}}
	spec.Attack = nil
	spec.Rounds = 1
	spec.Seeds = []int64{1}
	rep, err := RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Complete(); err == nil {
		t.Fatal("matrix with a failing cell reported complete")
	}
	var failed bool
	for _, c := range rep.Cells {
		switch c.Strategy {
		case "incompetent-teacher":
			failed = c.Error != ""
			if !strings.Contains(c.Error, "dynamic membership") {
				t.Errorf("error %q does not say why the cell failed", c.Error)
			}
		case "goldfish":
			if c.Error != "" {
				t.Errorf("goldfish cell failed: %s", c.Error)
			}
		}
	}
	if !failed {
		t.Error("failing cell not recorded")
	}
}

// TestValidateScenarioChecksStrategyNames: a misspelled strategy fails
// validation, even when the preset does not resolve, so RunScenario trains
// no cell before it reports the typo.
func TestValidateScenarioChecksStrategyNames(t *testing.T) {
	spec := tinyScenario()
	spec.Strategies = []string{"goldfish", "retrian"}
	for _, dataset := range []string{"mnist", "no-such-dataset"} {
		spec.Dataset = dataset
		if err := ValidateScenario(spec); err == nil || !strings.Contains(err.Error(), `unknown strategy "retrian"`) {
			t.Errorf("%s: ValidateScenario = %v, want an unknown-strategy error", dataset, err)
		}
	}
	spec.Dataset = "mnist"
	if rep, err := RunScenario(context.Background(), spec); err == nil || rep != nil {
		t.Errorf("RunScenario = (%v, %v), want no report and an unknown-strategy error", rep, err)
	}
}

func TestRunScenarioValidatesSpec(t *testing.T) {
	if _, err := RunScenario(context.Background(), ScenarioSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	// A schedule reaching past the PRESET-resolved round budget (Rounds
	// unset) must be rejected up front, not silently skipped or left to fail
	// every cell at run time.
	spec := tinyScenario()
	spec.Rounds = 0 // preset default (6 at tiny) — schedule round 2 still valid
	spec.Schedule[0].Round = 99
	if err := ValidateScenario(spec); err == nil || !strings.Contains(err.Error(), "resolved budget") {
		t.Errorf("ValidateScenario = %v, want a resolved-budget error", err)
	}
	if _, err := RunScenario(context.Background(), spec); err == nil {
		t.Error("RunScenario accepted a schedule beyond the resolved budget")
	}
	spec.Schedule[0].Round = 2
	if err := ValidateScenario(spec); err != nil {
		t.Errorf("in-budget schedule rejected: %v", err)
	}
}

// TestValidateScenarioChecksClientIndices: an attack or schedule entry
// naming a client the federation will not have must fail validation, not
// pass it and then fail every cell.
func TestValidateScenarioChecksClientIndices(t *testing.T) {
	spec := tinyScenario()
	spec.Clients = 1
	spec.Attack.Client = 1
	spec.Schedule[0].Client = 1
	if err := ValidateScenario(spec); err == nil || !strings.Contains(err.Error(), "attack client 1 out of range [0,1)") {
		t.Errorf("attack on a missing client: ValidateScenario = %v", err)
	}

	// The preset's client count (5) applies when the spec sets none, and a
	// departure shifts later positions down.
	spec = tinyScenario()
	spec.Clients = 0
	spec.Schedule = []scenario.DeletionSpec{
		{Round: 1, Type: scenario.DeleteClient, Client: 0},
		{Round: 1, Type: scenario.DeleteClass, Class: 7},
		{Round: 2, Type: scenario.DeleteSample, Client: 3, Target: scenario.TargetRandom, Fraction: 0.1},
	}
	if err := ValidateScenario(spec); err != nil {
		t.Errorf("in-range schedule rejected: %v", err)
	}
	spec.Schedule[2].Client = 4
	if err := ValidateScenario(spec); err == nil || !strings.Contains(err.Error(), "schedule[2]: client 4 out of range [0,4)") {
		t.Errorf("sample deletion past the shifted count: ValidateScenario = %v", err)
	}
	spec.Schedule[0].Client = 5
	if err := ValidateScenario(spec); err == nil || !strings.Contains(err.Error(), "schedule[0]: client 5 out of range [0,5)") {
		t.Errorf("departure of a missing client: ValidateScenario = %v", err)
	}
}

// TestValidateScenarioChecksClasses: a class deletion, attack target label
// or targeted-class source class outside the preset's classes (mnist: 10)
// is rejected up front instead of failing every cell at run time, and the
// last in-range class passes.
func TestValidateScenarioChecksClasses(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ScenarioSpec)
		want   string // "" means valid
	}{
		{"last class", func(s *ScenarioSpec) {
			s.Schedule = append(s.Schedule, scenario.DeletionSpec{Round: 3, Type: scenario.DeleteClass, Class: 9})
			s.Attack.TargetLabel = 9
		}, ""},
		{"class deletion", func(s *ScenarioSpec) {
			s.Schedule = append(s.Schedule, scenario.DeletionSpec{Round: 3, Type: scenario.DeleteClass, Class: 10})
		}, "schedule[1]: class 10 out of range [0,10)"},
		{"target label", func(s *ScenarioSpec) { s.Attack.TargetLabel = 10 }, "attack target label 10 out of range [0,10)"},
		{"label-flip target label", func(s *ScenarioSpec) {
			s.Attack = &scenario.AttackSpec{Type: "label-flip", Fraction: 0.3, TargetLabel: 12}
		}, "attack target label 12 out of range [0,10)"},
		{"source class", func(s *ScenarioSpec) {
			s.Attack = &scenario.AttackSpec{Types: []string{"backdoor", "targeted-class"}, Fraction: 0.3, TargetLabel: 0, SourceClass: 10}
		}, "attack source class 10 out of range [0,10)"},
	}
	for _, c := range cases {
		spec := tinyScenario()
		c.mutate(&spec)
		err := ValidateScenario(spec)
		if c.want == "" && err != nil {
			t.Errorf("%s: valid spec rejected: %v", c.name, err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: ValidateScenario = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestRunScenarioShardMergePublicSurface is the public acceptance path:
// -shard 1/2 + -shard 2/2 + merge must be byte-identical to the unsharded
// run, with VsRetrain populated in every partial.
func TestRunScenarioShardMergePublicSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a 4-cell matrix three times")
	}
	ctx := context.Background()
	spec := tinyScenario()
	full, err := RunScenario(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var parts []*ScenarioReport
	for i := 1; i <= 2; i++ {
		p, err := RunScenarioShard(ctx, spec, fmt.Sprintf("%d/2", i))
		if err != nil {
			t.Fatalf("shard %d/2: %v", i, err)
		}
		if err := p.Complete(); err != nil {
			t.Fatalf("shard %d/2 incomplete: %v", i, err)
		}
		if len(p.Cells) == 0 {
			t.Fatalf("shard %d/2 is empty", i)
		}
		for _, row := range p.Cells {
			if row.Strategy != "retrain" && row.VsRetrain == nil {
				t.Errorf("shard %d/2: %s/seed %d missing VsRetrain in the partial", i, row.Strategy, row.Seed)
			}
		}
		parts = append(parts, p)
	}
	merged, err := MergeScenarioReports(parts...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("merged shard reports differ from the single-machine report bytes")
	}
	if _, err := RunScenarioShard(ctx, spec, "5/2"); err == nil {
		t.Error("out-of-range shard accepted")
	}

	// Self-diff of a real report: no regressions, exit path stays green.
	d, err := DiffScenarioReports(full, merged, ScenarioDiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.HasRegressions() {
		t.Errorf("self-diff of a real report regressed: %+v", d.Regressions())
	}
}

func TestParseScenarioPublicSurface(t *testing.T) {
	spec, err := ParseScenario([]byte(`{"dataset":"mnist","strategies":["goldfish"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Dataset != "mnist" {
		t.Errorf("Dataset = %q", spec.Dataset)
	}
	if _, err := ParseScenario([]byte(`{"strategies":["goldfish"]}`)); err == nil {
		t.Error("dataset-less spec accepted")
	}
	if _, err := LoadScenario("/nonexistent/spec.json"); err == nil {
		t.Error("missing file accepted")
	}
}

// Regression: a client-level departure before a "poisoned"-target deletion
// shifts client positions; the poisoned rows must follow the attacked
// client to its new position, not hit whichever client now sits at the
// spec-time index.
func TestRunScenarioPoisonedDeletionTracksShiftedClient(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a small matrix")
	}
	spec := tinyScenario()
	spec.Clients = 4
	spec.Strategies = []string{"goldfish"}
	spec.Seeds = []int64{1}
	spec.Attack.Client = 1
	spec.Schedule = []scenario.DeletionSpec{
		{Round: 1, Type: scenario.DeleteClient, Client: 0},
		{Round: 2, Type: scenario.DeleteSample, Client: 1, Target: scenario.TargetPoisoned},
	}
	rep, err := RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Complete(); err != nil {
		t.Fatalf("matrix incomplete: %v", err)
	}
	c := rep.Cells[0]
	if c.RemovedClients != 1 {
		t.Errorf("RemovedClients = %d, want 1", c.RemovedClients)
	}
	// The forget set must include the departed client's data AND the
	// poisoned rows of the (shifted) attacked client.
	if c.RemovedRows == 0 {
		t.Error("no rows removed")
	}

	// If the attacked client itself departs, a later poisoned deletion has
	// no target and the cell must fail loudly instead of deleting from a
	// bystander.
	spec.Schedule = []scenario.DeletionSpec{
		{Round: 1, Type: scenario.DeleteClient, Client: 1},
		{Round: 2, Type: scenario.DeleteSample, Client: 1, Target: scenario.TargetPoisoned},
	}
	rep, err = RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Complete(); err == nil {
		t.Error("poisoned deletion after the attacked client departed reported complete")
	} else if !strings.Contains(err.Error(), "departed") {
		t.Errorf("unexpected failure: %v", err)
	}
}

func TestParseScenarioShardPublic(t *testing.T) {
	ref, err := ParseScenarioShard("2/3")
	if err != nil || ref.Index != 2 || ref.Count != 3 {
		t.Errorf("ParseScenarioShard = %+v, %v", ref, err)
	}
	if _, err := ParseScenarioShard("4/3"); err == nil {
		t.Error("out-of-range shard accepted")
	}
}
