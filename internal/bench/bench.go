// Package bench regenerates every table and figure of the paper's
// evaluation (§IV) on the synthetic substrate. Each experiment is registered
// under the paper artifact's ID (table3 … table12, fig4 … fig9) plus two
// ablations of this reproduction's own design choices, and produces a Report
// of text tables and series that mirror the paper's rows and curves.
//
// Experiments accept an Options scale knob: the default ScaleSmall keeps
// pure-Go CPU runs tractable; ScalePaper mirrors the paper's dimensions.
// Absolute numbers differ from the paper (synthetic data, reduced scale);
// the shape — who wins, by how much, where crossovers fall — is the
// reproduction target (README "Examples and experiments").
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"goldfish/internal/data"
)

// Options configures an experiment run.
type Options struct {
	// Scale selects dataset/model sizes (default data.ScaleSmall).
	Scale data.Scale
	// Seed drives all experiment randomness (default 1).
	Seed int64
	// Rounds overrides the per-scale default round budget when positive.
	Rounds int
	// DeletionRates overrides the default percentage sweep when non-empty
	// (values are percentages, e.g. 2, 6, 12).
	DeletionRates []int
}

func (o Options) withDefaults() Options {
	if o.Scale == "" {
		o.Scale = data.ScaleSmall
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Table is a paper-style results table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// Series is one named curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a paper-style plot rendered as text columns.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render writes the figure as an x-indexed column table, one column per
// series.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "%s  [%s vs %s]\n", f.Title, f.YLabel, f.XLabel)
	// Collect the union of x values across series.
	xset := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xset[x] = true
		}
	}
	xs := make([]float64, 0, len(xset))
	for x := range xset {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	header := make([]string, 0, len(f.Series)+1)
	header = append(header, f.XLabel)
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := make([][]string, 0, len(xs))
	for _, x := range xs {
		row := []string{fmt.Sprintf("%g", x)}
		for _, s := range f.Series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = fmt.Sprintf("%.4f", s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	tbl := Table{Title: "", Columns: header, Rows: rows}
	tbl.Render(w)
}

// Report is the output of one experiment: tables and figures in paper
// order.
type Report struct {
	ID      string
	Title   string
	Tables  []Table
	Figures []Figure
}

// Render writes the whole report.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "=== %s — %s ===\n", r.ID, r.Title)
	for i := range r.Tables {
		r.Tables[i].Render(w)
		fmt.Fprintln(w)
	}
	for i := range r.Figures {
		r.Figures[i].Render(w)
		fmt.Fprintln(w)
	}
}

// Experiment is one registered paper artifact.
type Experiment struct {
	// ID is the registry key ("table3", "fig5", …).
	ID string
	// Title describes the paper artifact.
	Title string
	// Run executes the experiment.
	Run func(opts Options) (*Report, error)
}

// Experiments returns the registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig4", Title: "Retraining accuracy curves: Ours vs B1 vs B2 (Fig. 4a–e)", Run: RunFig4},
		{ID: "fig5", Title: "Backdoor attack success rate vs deletion rate (Fig. 5a–e)", Run: RunFig5},
		{ID: "table3", Title: "Accuracy and backdoor ASR on MNIST (Table III)", Run: tableBackdoor("mnist")},
		{ID: "table4", Title: "Accuracy and backdoor ASR on FMNIST (Table IV)", Run: tableBackdoor("fmnist")},
		{ID: "table5", Title: "Accuracy and backdoor ASR on CIFAR-10 (Table V)", Run: tableBackdoor("cifar10")},
		{ID: "table6", Title: "Accuracy and backdoor ASR on CIFAR-100 (Table VI)", Run: tableBackdoor("cifar100")},
		{ID: "table7", Title: "JSD / L2 / t-test vs B1 on MNIST (Table VII)", Run: tableDivergence("mnist")},
		{ID: "table8", Title: "JSD / L2 / t-test vs B1 on FMNIST (Table VIII)", Run: tableDivergence("fmnist")},
		{ID: "table9", Title: "JSD / L2 / t-test vs B1 on CIFAR-10 (Table IX)", Run: tableDivergence("cifar10")},
		{ID: "table10", Title: "Loss-component ablation (Table X)", Run: RunTable10},
		{ID: "table11", Title: "Hard-loss compatibility: CE / Focal / NLL (Table XI)", Run: RunTable11},
		{ID: "fig6", Title: "Accuracy vs shard count (Fig. 6)", Run: RunFig6},
		{ID: "fig7", Title: "Accuracy around deletion for shard counts (Fig. 7a–c)", Run: RunFig7},
		{ID: "fig8", Title: "FedAvg vs adaptive weights under heterogeneity (Fig. 8a–c)", Run: RunFig8},
		{ID: "fig9", Title: "FedAvg vs adaptive weights, IID (Fig. 9)", Run: RunFig9},
		{ID: "table12", Title: "Heterogeneity statistics (Table XII)", Run: RunTable12},
		{ID: "ablate-early", Title: "Ablation: early termination epoch savings (this repo)", Run: RunAblateEarly},
		{ID: "ablate-temp", Title: "Ablation: adaptive distillation temperature (this repo)", Run: RunAblateTemp},
	}
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (see `goldfish-bench -list`)", id)
}
