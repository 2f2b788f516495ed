package scenario

import (
	"fmt"
	"io"
	"math"
	"strings"

	"goldfish/internal/stats"
)

// DefaultAlpha is the significance level Diff uses when DiffOptions.Alpha
// is unset.
const DefaultAlpha = 0.05

// DiffOptions tunes report diffing.
type DiffOptions struct {
	// Alpha is the Welch t-test significance level (default DefaultAlpha).
	Alpha float64
	// MinDelta is a practical-significance threshold that triggers
	// independently of the t-test: any mean shift of at least MinDelta is
	// flagged even when the t-test cannot detect it (a single seed, or too
	// much seed variance for the sample size), and a statistically
	// significant shift is flagged by the t-test no matter how small. Zero
	// disables the threshold, leaving the t-test as the only trigger.
	MinDelta float64
}

// MetricDelta is one metric's old → new movement on one cell.
type MetricDelta struct {
	Old   float64 `json:"old"`
	New   float64 `json:"new"`
	Delta float64 `json:"delta"` // New - Old
}

// CellDelta is the per-cell row of a report diff. Metric deltas are nil when
// either side lacks the metric or the cell failed on either side.
type CellDelta struct {
	Strategy      string       `json:"strategy"`
	Seed          int64        `json:"seed"`
	Attack        string       `json:"attack,omitempty"`
	Accuracy      *MetricDelta `json:"accuracy,omitempty"`
	ASR           *MetricDelta `json:"attack_success_rate,omitempty"`
	MembershipGap *MetricDelta `json:"membership_gap,omitempty"`
	OldError      string       `json:"old_error,omitempty"`
	NewError      string       `json:"new_error,omitempty"`
}

// Metric names used in MetricTest.Metric.
const (
	MetricAccuracy      = "accuracy"
	MetricASR           = "asr"
	MetricMembershipGap = "membership_gap"
)

// MetricTest is one (strategy, attack, metric) significance test across
// the seed axis: the old report's per-seed values against the new report's,
// compared with Welch's t-test (paper Tables VII–IX machinery from
// internal/stats).
type MetricTest struct {
	Strategy string  `json:"strategy"`
	Attack   string  `json:"attack,omitempty"`
	Metric   string  `json:"metric"`
	N        int     `json:"n"` // matched seeds per side
	MeanOld  float64 `json:"mean_old"`
	MeanNew  float64 `json:"mean_new"`
	Delta    float64 `json:"delta"` // MeanNew - MeanOld
	// T and P are the Welch t-test statistic and p-value; meaningful only
	// when Tested is true (a t-test needs ≥2 seeds per side).
	T      float64 `json:"t_stat,omitempty"`
	P      float64 `json:"p_value,omitempty"`
	Tested bool    `json:"tested"`
	// Significant marks a shift that clears either the statistical bar
	// (p < Alpha) or the practical one (|Delta| ≥ MinDelta, when a floor is
	// set) — the two triggers are independent; Regression additionally
	// marks it as a worsening (accuracy down, ASR up, |membership gap| up).
	Significant bool `json:"significant"`
	Regression  bool `json:"regression"`
}

// DiffReport is the cell-by-cell comparison of two scenario reports.
type DiffReport struct {
	Name     string  `json:"name"`
	Alpha    float64 `json:"alpha"`
	MinDelta float64 `json:"min_delta,omitempty"`
	// Cells are per-cell metric deltas over the matrix intersection, in the
	// new report's matrix order.
	Cells []CellDelta `json:"cells"`
	// Tests are the per-(strategy, attack, metric) significance tests.
	Tests []MetricTest `json:"tests"`
	// NewlyFailing lists cells that succeeded in the old report but carry an
	// error in the new one — always treated as a regression.
	NewlyFailing []string `json:"newly_failing,omitempty"`
	// OnlyInOld and OnlyInNew list cells present in one report only (axes
	// changed between the runs); those cells are not compared.
	OnlyInOld []string `json:"only_in_old,omitempty"`
	OnlyInNew []string `json:"only_in_new,omitempty"`
}

// Regressions returns the significant worsenings: the metric tests flagged
// Significant && Regression. Newly failing cells are reported separately in
// NewlyFailing.
func (d *DiffReport) Regressions() []MetricTest {
	var out []MetricTest
	for _, t := range d.Tests {
		if t.Significant && t.Regression {
			out = append(out, t)
		}
	}
	return out
}

// HasRegressions reports whether the diff should gate (fail) a CI run:
// any significant metric regression or any newly failing cell.
func (d *DiffReport) HasRegressions() bool {
	return len(d.NewlyFailing) > 0 || len(d.Regressions()) > 0
}

// Diff compares two scenario reports cell-by-cell: per-cell accuracy, attack
// success rate and membership-gap deltas over the matrix intersection, plus
// per-(strategy, attack, metric) Welch t-tests across the seed axis so a
// committed baseline report can gate CI on unlearning-efficacy regressions.
// Cells are matched by (strategy, seed, attack); the specs need not be identical
// (axes may have grown since the baseline), but the intersection must be
// non-empty. Diffing a report against itself yields all-zero deltas and no
// regressions.
func Diff(oldR, newR *Report, opts DiffOptions) (*DiffReport, error) {
	if oldR == nil || newR == nil {
		return nil, fmt.Errorf("scenario: diff needs two reports")
	}
	if opts.Alpha == 0 {
		opts.Alpha = DefaultAlpha
	}
	if opts.Alpha < 0 || opts.Alpha >= 1 {
		return nil, fmt.Errorf("scenario: alpha %g out of (0,1)", opts.Alpha)
	}
	if opts.MinDelta < 0 {
		return nil, fmt.Errorf("scenario: negative min delta %g", opts.MinDelta)
	}
	oldRows := make(map[cellKey]*CellResult, len(oldR.Cells))
	for i := range oldR.Cells {
		row := &oldR.Cells[i]
		oldRows[cellKey{row.Strategy, row.Seed, row.Attack}] = row
	}
	d := &DiffReport{Name: newR.Name, Alpha: opts.Alpha, MinDelta: opts.MinDelta}
	matched := map[cellKey]bool{}
	for i := range newR.Cells {
		nr := &newR.Cells[i]
		k := cellKey{nr.Strategy, nr.Seed, nr.Attack}
		or, ok := oldRows[k]
		if !ok {
			d.OnlyInNew = append(d.OnlyInNew, k.String())
			continue
		}
		matched[k] = true
		cd := CellDelta{Strategy: nr.Strategy, Seed: nr.Seed, Attack: nr.Attack,
			OldError: or.Error, NewError: nr.Error}
		if or.Error == "" && nr.Error == "" {
			cd.Accuracy = delta(or.Accuracy, nr.Accuracy)
			cd.ASR = deltaOpt(or.ASR, nr.ASR)
			cd.MembershipGap = deltaOpt(or.MembershipGap, nr.MembershipGap)
		} else if or.Error == "" && nr.Error != "" {
			d.NewlyFailing = append(d.NewlyFailing, k.String())
		}
		d.Cells = append(d.Cells, cd)
	}
	for _, c := range oldR.Spec.Cells() {
		k := cellKey{c.Strategy, c.Seed, c.Attack}
		if _, ok := oldRows[k]; ok && !matched[k] {
			d.OnlyInOld = append(d.OnlyInOld, k.String())
		}
	}
	if len(matched) == 0 {
		return nil, fmt.Errorf("scenario: the reports share no matrix cells")
	}

	// Group the matched, error-free cells by (strategy, attack) — the
	// seed axis supplies the samples — in the new report's deterministic
	// axis order.
	type group struct {
		strategy string
		attack   string
	}
	samples := map[group]map[string][2][]float64{}
	for _, cd := range d.Cells {
		if cd.Accuracy == nil {
			continue // errored on a side, or metrics unavailable
		}
		g := group{cd.Strategy, cd.Attack}
		if samples[g] == nil {
			samples[g] = map[string][2][]float64{}
		}
		add := func(metric string, o, n float64) {
			s := samples[g][metric]
			s[0] = append(s[0], o)
			s[1] = append(s[1], n)
			samples[g][metric] = s
		}
		add(MetricAccuracy, cd.Accuracy.Old, cd.Accuracy.New)
		if cd.ASR != nil {
			add(MetricASR, cd.ASR.Old, cd.ASR.New)
		}
		if cd.MembershipGap != nil {
			// Membership leakage is a magnitude: an unlearned model should
			// sit near zero gap, in either direction.
			add(MetricMembershipGap, math.Abs(cd.MembershipGap.Old), math.Abs(cd.MembershipGap.New))
		}
	}
	for _, strat := range newR.Spec.Strategies {
		for _, atk := range newR.Spec.AttackList() {
			g := group{strat, atk}
			for _, metric := range []string{MetricAccuracy, MetricASR, MetricMembershipGap} {
				s, ok := samples[g][metric]
				if !ok || len(s[0]) == 0 {
					continue
				}
				d.Tests = append(d.Tests, newMetricTest(g.strategy, g.attack, metric, s[0], s[1], opts))
			}
		}
	}
	return d, nil
}

func delta(o, n float64) *MetricDelta {
	return &MetricDelta{Old: o, New: n, Delta: n - o}
}

func deltaOpt(o, n *float64) *MetricDelta {
	if o == nil || n == nil {
		return nil
	}
	return delta(*o, *n)
}

// newMetricTest runs one group's significance test. With ≥2 seeds per side
// it is a Welch t-test; with one seed no test is possible and only an
// explicit MinDelta floor can flag the shift.
func newMetricTest(strategy, attack, metric string, olds, news []float64, opts DiffOptions) MetricTest {
	t := MetricTest{
		Strategy: strategy, Attack: attack, Metric: metric,
		N:       len(olds),
		MeanOld: stats.Mean(olds), MeanNew: stats.Mean(news),
	}
	t.Delta = t.MeanNew - t.MeanOld
	// A statistically significant shift triggers regardless of MinDelta;
	// the epsilon keeps float-rounding noise (near-zero deltas with
	// near-zero variance) from reading as significant.
	const deltaEpsilon = 1e-9
	if len(olds) >= 2 && len(news) >= 2 {
		if res, err := stats.WelchTTest(news, olds); err == nil && !math.IsNaN(res.P) {
			t.Tested = true
			t.T = clampFinite(res.T)
			t.P = res.P
			t.Significant = res.P < opts.Alpha && math.Abs(t.Delta) > deltaEpsilon
		}
	}
	// The practical threshold triggers on its own: a shift this large is a
	// finding whether or not the seed sample is big enough to prove it.
	if opts.MinDelta > 0 && math.Abs(t.Delta) >= opts.MinDelta {
		t.Significant = true
	}
	if t.Significant {
		switch metric {
		case MetricAccuracy:
			t.Regression = t.Delta < 0
		default: // asr, membership_gap: larger is worse
			t.Regression = t.Delta > 0
		}
	}
	return t
}

// clampFinite keeps the t statistic JSON-encodable (±Inf arises from
// zero-variance samples with different means).
func clampFinite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	if math.IsInf(x, -1) {
		return -math.MaxFloat64
	}
	return x
}

// RenderText writes a human-readable diff: the significance-test table with
// regressions flagged, plus any newly failing or unmatched cells.
func (d *DiffReport) RenderText(w io.Writer) {
	fmt.Fprintf(w, "=== report diff %s (α=%g", d.Name, d.Alpha)
	if d.MinDelta > 0 {
		fmt.Fprintf(w, ", min Δ=%g", d.MinDelta)
	}
	fmt.Fprintf(w, ", %d cells compared) ===\n", len(d.Cells))
	cols := []string{"strategy", "attack", "metric", "n", "old", "new", "delta", "p", "flag"}
	rows := make([][]string, 0, len(d.Tests))
	for _, t := range d.Tests {
		p := "-"
		if t.Tested {
			p = fmt.Sprintf("%.4f", t.P)
		}
		flag := ""
		switch {
		case t.Significant && t.Regression:
			flag = "REGRESSION"
		case t.Significant:
			flag = "improved"
		}
		atk := t.Attack
		if atk == "" {
			atk = "-"
		}
		rows = append(rows, []string{
			t.Strategy,
			atk,
			t.Metric,
			fmt.Sprintf("%d", t.N),
			fmt.Sprintf("%.4f", t.MeanOld),
			fmt.Sprintf("%.4f", t.MeanNew),
			fmt.Sprintf("%+.4f", t.Delta),
			p,
			flag,
		})
	}
	renderTable(w, cols, rows)
	for _, c := range d.NewlyFailing {
		fmt.Fprintf(w, "  NEWLY FAILING: %s\n", c)
	}
	if len(d.OnlyInOld) > 0 {
		fmt.Fprintf(w, "  only in baseline (%d): %s\n", len(d.OnlyInOld), strings.Join(d.OnlyInOld, "; "))
	}
	if len(d.OnlyInNew) > 0 {
		fmt.Fprintf(w, "  only in new (%d): %s\n", len(d.OnlyInNew), strings.Join(d.OnlyInNew, "; "))
	}
}
