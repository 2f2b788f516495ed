package scenario

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"goldfish/internal/tensor"
)

// fakeOutcome builds a deterministic outcome for a cell, so shard partials
// and a single-machine run see identical per-cell results.
func fakeOutcome(c Cell) Outcome {
	var o Outcome
	o.Result.Rounds = 4
	o.Result.Accuracy = 0.5 + 0.01*float64(c.Seed) + 0.0001*float64(len(c.Attack))
	o.Probs = fakeRows(float64(c.Seed), float64(len(c.Attack)), float64(len(c.Strategy)))
	return o
}

// fakeCompare derives a comparison purely from the two fake probability
// rows, mirroring the determinism contract of the real comparer.
func fakeCompare(cell Cell, probs, ref *tensor.Tensor) (*Comparison, error) {
	return &Comparison{JSD: probs.Data()[2] - ref.Data()[2], L2: probs.Data()[0], T: 1, P: 0.5}, nil
}

func fullFakeReport(t *testing.T, spec Spec) *Report {
	t.Helper()
	cells := spec.Cells()
	outcomes := make([]Outcome, len(cells))
	for i, c := range cells {
		outcomes[i] = fakeOutcome(c)
	}
	rep, err := Assemble(spec, outcomes, fakeCompare)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func shardFakeReport(t *testing.T, spec Spec, ref ShardRef) *Report {
	t.Helper()
	cells, err := spec.ShardCells(ref)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := make([]Outcome, len(cells))
	for i, c := range cells {
		outcomes[i] = fakeOutcome(c)
	}
	rep, err := AssembleCells(spec, ref, cells, outcomes, fakeCompare)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestMergeShardsByteIdentical is the tentpole property: for every shard
// count k, running the matrix as k partials and merging them produces JSON
// byte-identical to the single-machine report, with VsRetrain populated
// inside every partial.
func TestMergeShardsByteIdentical(t *testing.T) {
	spec := shardSpec() // 3 strategies × 6 seeds = 18 cells, 6 groups
	want, err := fullFakeReport(t, spec).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 7; k++ {
		parts := make([]*Report, 0, k)
		for i := 1; i <= k; i++ {
			p := shardFakeReport(t, spec, ShardRef{Index: i, Count: k})
			if err := p.Complete(); err != nil {
				t.Fatalf("k=%d shard %d incomplete: %v", k, i, err)
			}
			if p.Shard != fmt.Sprintf("%d/%d", i, k) {
				t.Errorf("k=%d shard %d marker = %q", k, i, p.Shard)
			}
			for _, row := range p.Cells {
				if row.Strategy != RetrainReference && row.VsRetrain == nil {
					t.Errorf("k=%d shard %d: %s/seed %d missing VsRetrain in the partial",
						k, i, row.Strategy, row.Seed)
				}
			}
			parts = append(parts, p)
		}
		merged, err := Merge(parts...)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got, err := merged.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("k=%d: merged report differs from the single-machine report", k)
		}
	}
}

// TestMergeShardsAttackAxisByteIdentical: the tentpole property holds with
// an attack axis — k partials of an attack-sweep matrix merge back into
// bytes identical to the single-machine report, and a row whose attack label
// does not belong to the matrix is rejected instead of silently adopted.
func TestMergeShardsAttackAxisByteIdentical(t *testing.T) {
	spec := shardSpec()
	spec.Attack = &AttackSpec{
		Types: []string{"backdoor", "label-flip"}, Fraction: 0.3, TargetLabel: 0,
	}
	want, err := fullFakeReport(t, spec).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 5; k++ {
		parts := make([]*Report, 0, k)
		for i := 1; i <= k; i++ {
			parts = append(parts, shardFakeReport(t, spec, ShardRef{Index: i, Count: k}))
		}
		merged, err := Merge(parts...)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got, err := merged.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("k=%d: merged attack-sweep bytes differ from the single-machine report", k)
		}
	}
	// A row addressed to an attack type outside the matrix fails loudly.
	a := shardFakeReport(t, spec, ShardRef{Index: 1, Count: 2})
	b := shardFakeReport(t, spec, ShardRef{Index: 2, Count: 2})
	b.Cells[0].Attack = "targeted-class"
	if _, err := Merge(a, b); err == nil || !strings.Contains(err.Error(), "not in the spec's matrix") {
		t.Errorf("Merge with a foreign attack label = %v", err)
	}
}

// TestMergeRoundTripsThroughJSON merges reports reloaded from disk, the way
// the CLI does across machines.
func TestMergeRoundTripsThroughJSON(t *testing.T) {
	spec := shardSpec()
	dir := t.TempDir()
	var parts []*Report
	for i := 1; i <= 2; i++ {
		p := shardFakeReport(t, spec, ShardRef{Index: i, Count: 2})
		path := filepath.Join(dir, fmt.Sprintf("part%d.json", i))
		if err := p.WriteJSON(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadReport(path)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, loaded)
	}
	merged, err := Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fullFakeReport(t, spec).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("merge of JSON-round-tripped partials differs from the single-machine report")
	}
}

func TestMergeRejectsOverlap(t *testing.T) {
	spec := shardSpec()
	p1 := shardFakeReport(t, spec, ShardRef{Index: 1, Count: 2})
	p2 := shardFakeReport(t, spec, ShardRef{Index: 2, Count: 2})
	full := fullFakeReport(t, spec)
	if _, err := Merge(p1, p1, p2); err == nil || !strings.Contains(err.Error(), "appears in both") {
		t.Errorf("duplicate partial accepted: %v", err)
	}
	if _, err := Merge(full, p1); err == nil || !strings.Contains(err.Error(), "appears in both") {
		t.Errorf("full+partial overlap accepted: %v", err)
	}
}

func TestMergeRejectsMissingCells(t *testing.T) {
	spec := shardSpec()
	p1 := shardFakeReport(t, spec, ShardRef{Index: 1, Count: 3})
	p3 := shardFakeReport(t, spec, ShardRef{Index: 3, Count: 3})
	_, err := Merge(p1, p3)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("merge with a missing shard accepted: %v", err)
	}
	// The error must name at least one concrete gap.
	if !strings.Contains(err.Error(), "seed") {
		t.Errorf("missing-cell error does not name cells: %v", err)
	}
}

func TestMergeRejectsSpecMismatch(t *testing.T) {
	spec := shardSpec()
	p1 := shardFakeReport(t, spec, ShardRef{Index: 1, Count: 2})
	other := spec
	other.Seeds = []int64{1, 2, 6}
	p2 := shardFakeReport(t, other, ShardRef{Index: 2, Count: 2})
	if _, err := Merge(p1, p2); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Errorf("spec mismatch accepted: %v", err)
	}
}

func TestMergeRejectsForeignAndNilInputs(t *testing.T) {
	spec := shardSpec()
	p1 := shardFakeReport(t, spec, ShardRef{Index: 1, Count: 1})
	bogus := &Report{Name: spec.Name, Spec: p1.Spec, Cells: []CellResult{
		{Strategy: "goldfish", Seed: 99},
	}}
	if _, err := Merge(p1, bogus); err == nil || !strings.Contains(err.Error(), "not in the spec's matrix") {
		t.Errorf("foreign cell accepted: %v", err)
	}
	if _, err := Merge(); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := Merge(p1, nil); err == nil {
		t.Error("nil input accepted")
	}
}

// TestMergeIgnoresWorkersKnob: partials run at different -workers settings
// must still merge (the knob is canonicalized out of reports anyway).
func TestMergeIgnoresWorkersKnob(t *testing.T) {
	spec := shardSpec()
	s1 := spec
	s1.Workers = 2
	s2 := spec
	s2.Workers = 16
	p1 := shardFakeReport(t, s1, ShardRef{Index: 1, Count: 2})
	p2 := shardFakeReport(t, s2, ShardRef{Index: 2, Count: 2})
	if _, err := Merge(p1, p2); err != nil {
		t.Errorf("workers knob broke the merge: %v", err)
	}
}

// TestMergeAcceptsIncompleteInputsCovering: the resume path — an interrupted
// run's partial plus a complementary partial merge into a complete report.
func TestMergeAcceptsIncompleteInputsCovering(t *testing.T) {
	spec := shardSpec()
	cells, err := spec.ShardCells(ShardRef{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	outcomes := make([]Outcome, len(cells))
	groupDone := func(c Cell) bool { return c.Seed != 5 } // pretend seed-5 groups were interrupted
	for i, c := range cells {
		if groupDone(c) {
			outcomes[i] = fakeOutcome(c)
		} else {
			outcomes[i] = Outcome{Canceled: true}
		}
	}
	interrupted, err := AssembleCells(spec, ShardRef{Index: 1, Count: 2}, cells, outcomes, fakeCompare)
	if err != nil {
		t.Fatal(err)
	}
	if !interrupted.Incomplete {
		t.Fatal("interrupted partial not marked incomplete")
	}
	if err := interrupted.Complete(); err == nil {
		t.Error("incomplete report passed Complete")
	}
	// Merge with partials that exactly cover the gap (a full rerun of the
	// shard also works — see TestMergeDedupesInterruptedRerun).
	var rest []*Report
	rest = append(rest, shardFakeReport(t, spec, ShardRef{Index: 2, Count: 2}))
	// The dropped cells: rebuild them as a hand-carried partial (no shard
	// marker, as a resumed run of just those cells would produce).
	var gapCells []Cell
	for i, c := range cells {
		if outcomes[i].Canceled {
			gapCells = append(gapCells, c)
		}
	}
	gapOutcomes := make([]Outcome, len(gapCells))
	for i, c := range gapCells {
		gapOutcomes[i] = fakeOutcome(c)
	}
	gap, err := AssembleCells(spec, ShardRef{}, gapCells, gapOutcomes, fakeCompare)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(append([]*Report{interrupted, gap}, rest...)...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fullFakeReport(t, spec).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed merge differs from the single-machine report")
	}
}

// TestMergeDedupesInterruptedRerun is the CLI-shaped resume flow: a shard
// run is interrupted (partial marked incomplete), the SAME shard is re-run
// to completion, and merging the interrupted partial + the complete rerun +
// the other shard dedupes the byte-identical overlap instead of rejecting it.
func TestMergeDedupesInterruptedRerun(t *testing.T) {
	spec := shardSpec()
	ref := ShardRef{Index: 1, Count: 2}
	cells, err := spec.ShardCells(ref)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := make([]Outcome, len(cells))
	for i, c := range cells {
		if c.Seed == 5 {
			outcomes[i] = Outcome{Canceled: true} // interrupted mid-shard
		} else {
			outcomes[i] = fakeOutcome(c)
		}
	}
	interrupted, err := AssembleCells(spec, ref, cells, outcomes, fakeCompare)
	if err != nil {
		t.Fatal(err)
	}
	rerun := shardFakeReport(t, spec, ref) // same shard, completed this time
	other := shardFakeReport(t, spec, ShardRef{Index: 2, Count: 2})
	merged, err := Merge(interrupted, rerun, other)
	if err != nil {
		t.Fatalf("resume merge rejected: %v", err)
	}
	got, err := merged.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fullFakeReport(t, spec).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resume merge differs from the single-machine report")
	}

	// A CONFLICTING duplicate (the code or spec changed between the runs)
	// must still be rejected, even against an incomplete input.
	conflicting := shardFakeReport(t, spec, ref)
	conflicting.Cells[0].Accuracy += 1
	if _, err := Merge(interrupted, conflicting, other); err == nil ||
		!strings.Contains(err.Error(), "appears in both") {
		t.Errorf("conflicting duplicate accepted: %v", err)
	}
	// And two COMPLETE reports never dedupe, identical rows or not.
	if _, err := Merge(rerun, rerun, other); err == nil ||
		!strings.Contains(err.Error(), "appears in both") {
		t.Errorf("identical complete duplicates accepted: %v", err)
	}
}

// TestParseReportMigratesLegacyAttackRows: a report written before rows
// carried an "attack" stamp (single-type attack spec, rows keyed attack="")
// must load, adopt the spec's type, and pass Complete — not be rejected as
// outside the matrix.
func TestParseReportMigratesLegacyAttackRows(t *testing.T) {
	legacy := []byte(`{
  "name": "legacy",
  "spec": {
    "name": "legacy",
    "dataset": "mnist",
    "scale": "tiny",
    "rounds": 2,
    "attack": {"type": "backdoor", "client": 0, "fraction": 0.3, "target_label": 0},
    "strategies": ["goldfish"],
    "seeds": [1]
  },
  "cells": [
    {"strategy": "goldfish", "seed": 1, "rounds": 2, "removed_rows": 0, "accuracy": 0.5}
  ]
}`)
	r, err := ParseReport(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Cells[0].Attack; got != "backdoor" {
		t.Errorf("legacy row migrated to attack %q, want backdoor", got)
	}
	if err := r.Complete(); err != nil {
		t.Errorf("migrated legacy report failed Complete: %v", err)
	}
}

func TestParseReportRejectsDuplicateAndForeignRows(t *testing.T) {
	spec := shardSpec()
	rep := shardFakeReport(t, spec, ShardRef{Index: 1, Count: 2})
	dup := *rep
	dup.Cells = append(append([]CellResult{}, rep.Cells...), rep.Cells[0])
	b, err := dup.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseReport(b); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicated row accepted: %v", err)
	}
	foreign := *rep
	foreign.Cells = append([]CellResult{}, rep.Cells...)
	foreign.Cells[0].Seed = 99
	if b, err = foreign.MarshalIndent(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseReport(b); err == nil || !strings.Contains(err.Error(), "not in the spec's matrix") {
		t.Errorf("foreign row accepted: %v", err)
	}
}

// TestMergeRejectsIntraInputDuplicates: a cell listed twice inside ONE
// report is corruption, never a resume overlap — even on an incomplete
// input with identical rows.
func TestMergeRejectsIntraInputDuplicates(t *testing.T) {
	spec := shardSpec()
	p1 := shardFakeReport(t, spec, ShardRef{Index: 1, Count: 2})
	p2 := shardFakeReport(t, spec, ShardRef{Index: 2, Count: 2})
	corrupt := *p1
	corrupt.Incomplete = true
	corrupt.Cells = append(append([]CellResult{}, p1.Cells...), p1.Cells[0])
	if _, err := Merge(&corrupt, p2); err == nil || !strings.Contains(err.Error(), "appears twice in merge input") {
		t.Errorf("intra-input duplicate accepted: %v", err)
	}
}
