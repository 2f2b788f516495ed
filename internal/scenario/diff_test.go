package scenario

import (
	"strings"
	"testing"
)

// diffReport builds a report whose per-cell metrics come from f, with a tiny
// per-seed jitter so the seed axis carries low-variance samples (making
// genuine shifts statistically detectable with few seeds).
func diffReport(t *testing.T, spec Spec, f func(c Cell) CellResult) *Report {
	t.Helper()
	cells := spec.Cells()
	outcomes := make([]Outcome, len(cells))
	for i, c := range cells {
		outcomes[i] = Outcome{Result: f(c), Probs: fakeRows(1)}
	}
	rep, err := Assemble(spec, outcomes, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func diffSpec() Spec {
	return Spec{
		Name:       "diff",
		Dataset:    "mnist",
		Scale:      "tiny",
		Rounds:     4,
		Strategies: []string{"goldfish", "retrain"},
		Seeds:      []int64{1, 2, 3},
	}
}

func baseCell(c Cell) CellResult {
	jitter := 0.001 * float64(c.Seed)
	asr := 0.05 + jitter
	gap := 0.02 + jitter
	return CellResult{
		Rounds:        4,
		Accuracy:      0.90 + jitter,
		ASR:           &asr,
		MembershipGap: &gap,
	}
}

func TestDiffSelfIsEmpty(t *testing.T) {
	rep := diffReport(t, diffSpec(), baseCell)
	d, err := Diff(rep, rep, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.HasRegressions() {
		t.Errorf("self-diff has regressions: %+v", d.Regressions())
	}
	if len(d.Cells) != len(rep.Cells) {
		t.Errorf("compared %d cells, want %d", len(d.Cells), len(rep.Cells))
	}
	for _, cd := range d.Cells {
		if cd.Accuracy == nil || cd.Accuracy.Delta != 0 {
			t.Errorf("self-diff cell %s/seed %d has accuracy delta %+v", cd.Strategy, cd.Seed, cd.Accuracy)
		}
	}
	if len(d.Tests) == 0 {
		t.Fatal("no significance tests")
	}
	for _, mt := range d.Tests {
		if !mt.Tested {
			t.Errorf("%s/%s not tested with 3 seeds", mt.Strategy, mt.Metric)
		}
		if mt.Significant {
			t.Errorf("self-diff %s/%s flagged significant (p=%g)", mt.Strategy, mt.Metric, mt.P)
		}
		if mt.P != 1 {
			t.Errorf("self-diff %s/%s p=%g, want 1 (identical samples)", mt.Strategy, mt.Metric, mt.P)
		}
	}
	if len(d.OnlyInOld)+len(d.OnlyInNew)+len(d.NewlyFailing) != 0 {
		t.Error("self-diff reports unmatched or failing cells")
	}
}

func TestDiffFlagsAccuracyRegression(t *testing.T) {
	spec := diffSpec()
	old := diffReport(t, spec, baseCell)
	cur := diffReport(t, spec, func(c Cell) CellResult {
		r := baseCell(c)
		if c.Strategy == "goldfish" {
			r.Accuracy -= 0.10 // a real drop, far above the seed jitter
		}
		return r
	})
	d, err := Diff(old, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	regs := d.Regressions()
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly the goldfish accuracy drop", regs)
	}
	if regs[0].Strategy != "goldfish" || regs[0].Metric != MetricAccuracy {
		t.Errorf("flagged %s/%s", regs[0].Strategy, regs[0].Metric)
	}
	if !d.HasRegressions() {
		t.Error("HasRegressions false despite a flagged regression")
	}
	// An accuracy IMPROVEMENT must be significant but not a regression.
	better := diffReport(t, spec, func(c Cell) CellResult {
		r := baseCell(c)
		r.Accuracy += 0.10
		return r
	})
	d, err = Diff(old, better, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.HasRegressions() {
		t.Errorf("improvement flagged as regression: %+v", d.Regressions())
	}
	var sig bool
	for _, mt := range d.Tests {
		if mt.Metric == MetricAccuracy && mt.Significant {
			sig = true
		}
	}
	if !sig {
		t.Error("a 0.10 accuracy improvement was not significant")
	}
}

func TestDiffFlagsASRAndMembershipRegressions(t *testing.T) {
	spec := diffSpec()
	old := diffReport(t, spec, baseCell)
	cur := diffReport(t, spec, func(c Cell) CellResult {
		r := baseCell(c)
		asr := *r.ASR + 0.30 // backdoor resurfacing
		r.ASR = &asr
		gap := -(*r.MembershipGap) - 0.20 // leakage magnitude up, sign flipped
		r.MembershipGap = &gap
		return r
	})
	d, err := Diff(old, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, mt := range d.Regressions() {
		got[mt.Metric] = true
	}
	if !got[MetricASR] {
		t.Error("ASR increase not flagged as regression")
	}
	if !got[MetricMembershipGap] {
		t.Error("membership-gap magnitude increase not flagged as regression")
	}
	if got[MetricAccuracy] {
		t.Error("unchanged accuracy flagged")
	}
}

func TestDiffSingleSeedNeedsMinDelta(t *testing.T) {
	spec := diffSpec()
	spec.Seeds = []int64{1}
	old := diffReport(t, spec, baseCell)
	cur := diffReport(t, spec, func(c Cell) CellResult {
		r := baseCell(c)
		r.Accuracy -= 0.10
		return r
	})
	d, err := Diff(old, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range d.Tests {
		if mt.Tested {
			t.Errorf("%s/%s tested with one seed", mt.Strategy, mt.Metric)
		}
	}
	if d.HasRegressions() {
		t.Error("single-seed diff flagged without a MinDelta floor")
	}
	d, err = Diff(old, cur, DiffOptions{MinDelta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions()) == 0 {
		t.Error("0.10 drop under a 0.05 MinDelta floor not flagged")
	}
}

func TestDiffRecordsFailuresAndAxisChanges(t *testing.T) {
	spec := diffSpec()
	old := diffReport(t, spec, baseCell)
	cur := diffReport(t, spec, func(c Cell) CellResult {
		r := baseCell(c)
		if c.Strategy == "goldfish" && c.Seed == 2 {
			return CellResult{Error: "boom"}
		}
		return r
	})
	d, err := Diff(old, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.NewlyFailing) != 1 || !strings.Contains(d.NewlyFailing[0], "goldfish") {
		t.Errorf("NewlyFailing = %v", d.NewlyFailing)
	}
	if !d.HasRegressions() {
		t.Error("a newly failing cell must gate the diff")
	}

	grown := diffSpec()
	grown.Seeds = []int64{1, 2, 3, 4}
	curGrown := diffReport(t, grown, baseCell)
	d, err = Diff(old, curGrown, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.OnlyInNew) != len(grown.Strategies) {
		t.Errorf("OnlyInNew = %v, want the two seed-4 cells", d.OnlyInNew)
	}
	if d.HasRegressions() {
		t.Error("axis growth alone flagged as regression")
	}

	disjoint := diffSpec()
	disjoint.Seeds = []int64{7}
	other := diffReport(t, disjoint, baseCell)
	if _, err := Diff(old, other, DiffOptions{}); err == nil {
		t.Error("diff with no shared cells accepted")
	}
}

// TestDiffAttackAxisAndNilASR: cells are matched per attack type, the
// significance tests group by (strategy, attack), ASR resurfacing on one
// probe style is attributed to that style alone, and a side with a nil ASR
// (the probe was unavailable) degrades to a nil delta instead of a panic.
func TestDiffAttackAxisAndNilASR(t *testing.T) {
	spec := diffSpec()
	spec.Attack = &AttackSpec{
		Types: []string{"backdoor", "label-flip"}, Fraction: 0.3, TargetLabel: 0,
	}
	old := diffReport(t, spec, baseCell)
	cur := diffReport(t, spec, func(c Cell) CellResult {
		r := baseCell(c)
		switch {
		case c.Attack == "label-flip" && c.Strategy == "goldfish":
			asr := *r.ASR + 0.30 // the flip resurfaces for goldfish only
			r.ASR = &asr
		case c.Attack == "backdoor" && c.Strategy == "retrain":
			r.ASR = nil // probe unavailable on this side
		}
		return r
	})
	d, err := Diff(old, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cd := range d.Cells {
		if cd.Attack == "" {
			t.Fatalf("cell delta %s/seed %d lost its attack label", cd.Strategy, cd.Seed)
		}
		if cd.Strategy == "retrain" && cd.Attack == "backdoor" {
			if cd.ASR != nil {
				t.Errorf("nil-ASR side produced a delta: %+v", cd.ASR)
			}
			if cd.Accuracy == nil {
				t.Error("accuracy delta lost alongside the nil ASR")
			}
		}
	}
	regs := d.Regressions()
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly the goldfish label-flip ASR", regs)
	}
	if regs[0].Strategy != "goldfish" || regs[0].Attack != "label-flip" || regs[0].Metric != MetricASR {
		t.Errorf("flagged %s/%s/%s", regs[0].Strategy, regs[0].Attack, regs[0].Metric)
	}
	// The backdoor plane keeps ASR tests on the strategies that carried the
	// probe on both sides; retrain's nil side contributes no samples.
	for _, mt := range d.Tests {
		if mt.Strategy == "retrain" && mt.Attack == "backdoor" && mt.Metric == MetricASR {
			t.Errorf("ASR test ran over a nil-ASR side: %+v", mt)
		}
	}
	var sb strings.Builder
	d.RenderText(&sb)
	if !strings.Contains(sb.String(), "label-flip") {
		t.Errorf("RenderText omits the attack column:\n%s", sb.String())
	}
}

func TestDiffOptionValidationAndRender(t *testing.T) {
	rep := diffReport(t, diffSpec(), baseCell)
	if _, err := Diff(rep, rep, DiffOptions{Alpha: 1.5}); err == nil {
		t.Error("alpha 1.5 accepted")
	}
	if _, err := Diff(rep, rep, DiffOptions{MinDelta: -1}); err == nil {
		t.Error("negative MinDelta accepted")
	}
	if _, err := Diff(nil, rep, DiffOptions{}); err == nil {
		t.Error("nil report accepted")
	}
	d, err := Diff(rep, rep, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	d.RenderText(&sb)
	out := sb.String()
	for _, want := range []string{"goldfish", "accuracy", "membership_gap"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderText missing %q:\n%s", want, out)
		}
	}
}
