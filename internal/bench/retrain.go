package bench

import (
	"context"
	"fmt"

	"goldfish/internal/core"
	"goldfish/internal/unlearn"
)

// RunFig4 regenerates Fig. 4: test-accuracy curves while retraining after a
// deletion request, comparing Goldfish ("ours") against B1 (retrain from
// scratch) and B2 (FIM-guided rapid retraining), one sub-figure per
// dataset/model combination.
func RunFig4(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	report := &Report{ID: "fig4", Title: "Accuracy while retraining after deletion (ours vs B1 vs B2)"}
	speed := Table{
		Title:   "Retraining speed: rounds to reach the half-way accuracy mark (lower is faster)",
		Columns: []string{"combo", "threshold", "ours", "B2", "B1"},
	}
	for _, c := range fig45Combos(opts.Scale) {
		fig, err := runFig4Combo(c, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: %s/%s: %w", c.dataset, c.arch, err)
		}
		report.Figures = append(report.Figures, *fig)
		speed.Rows = append(speed.Rows, speedRow(fmt.Sprintf("%s/%s", c.dataset, c.arch), fig.Series))
	}
	report.Tables = append(report.Tables, speed)
	return report, nil
}

// speedRow summarizes a Fig. 4 sub-figure as rounds-to-threshold, where the
// threshold is half the best accuracy any method reaches — the paper's
// efficiency claim in one number per method.
func speedRow(combo string, series []Series) []string {
	best := 0.0
	for _, s := range series {
		for _, y := range s.Y {
			if y > best {
				best = y
			}
		}
	}
	threshold := best / 2
	row := []string{combo, fmt.Sprintf("%.3f", threshold)}
	for _, name := range []string{"ours", "B2", "B1"} {
		cell := "-"
		for _, s := range series {
			if s.Name != name {
				continue
			}
			for i, y := range s.Y {
				if y >= threshold {
					cell = fmt.Sprintf("%.0f", s.X[i])
					break
				}
			}
		}
		row = append(row, cell)
	}
	return row
}

func runFig4Combo(c comboSpec, opts Options) (*Figure, error) {
	s, err := newSetup(c.dataset, c.arch, opts)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	parts, err := s.partitionIID()
	if err != nil {
		return nil, err
	}
	// Delete 5% of client 0's data (plain rows; Fig. 4 studies retraining
	// speed, not backdoors).
	n := parts[0].Len() / 20
	if n == 0 {
		n = 1
	}
	rows := s.rng.Perm(parts[0].Len())[:n]

	fig := &Figure{
		Title:  fmt.Sprintf("Fig.4 %s (%s)", c.dataset, c.arch),
		XLabel: "retraining round",
		YLabel: "test accuracy",
	}
	b2cfg := s.clientConfig()
	b2cfg.Opt.LR /= 5 // preconditioned updates want a smaller LR
	for _, m := range []struct {
		series, strategy string
		cfg              core.Config
	}{
		{"ours", "goldfish", s.clientConfig()},
		{"B2", "fisher", b2cfg},
		{"B1", "retrain", s.clientConfig()},
	} {
		curve := Series{Name: m.series}
		var accErr error
		_, _, err := s.runStrategy(ctx, m.strategy, m.cfg, parts, rows, func(rs unlearn.RoundStats) {
			acc, aerr := s.accuracy(rs.Global)
			if aerr != nil {
				accErr = aerr
				return
			}
			curve.X = append(curve.X, float64(len(curve.X)+1))
			curve.Y = append(curve.Y, acc)
		})
		if err == nil {
			err = accErr
		}
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, curve)
	}
	return fig, nil
}
