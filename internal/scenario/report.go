package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"goldfish/internal/tensor"
)

// renderTable writes an aligned left-padded text table with a separator
// under the header row.
func renderTable(w io.Writer, cols []string, rows [][]string) {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(cols)
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

// RetrainReference is the strategy name used as the comparison reference for
// model-similarity metrics: when a spec's strategy axis includes it, every
// other strategy's cell is compared against the retrain cell of the same
// seed and attack type.
const RetrainReference = "retrain"

// Comparison holds model-similarity statistics of a cell's final model
// against the retrain reference of the same seed and attack type (paper
// Tables VII–IX).
type Comparison struct {
	// JSD is the mean per-sample Jensen–Shannon divergence.
	JSD float64 `json:"jsd"`
	// L2 is the mean per-sample Euclidean distance of probability vectors.
	L2 float64 `json:"l2"`
	// T and P are the Welch t-test statistic and p-value over prediction
	// confidences.
	T float64 `json:"t_stat"`
	P float64 `json:"p_value"`
}

// CellResult is one row of the report.
type CellResult struct {
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
	// Attack is the cell's attack-probe type (omitted without an attack).
	Attack string `json:"attack,omitempty"`
	// Rounds is the number of federation rounds the cell ran.
	Rounds int `json:"rounds"`
	// RemovedRows counts samples deleted by the schedule; RemovedClients
	// counts client-level departures.
	RemovedRows    int `json:"removed_rows"`
	RemovedClients int `json:"removed_clients,omitempty"`
	// Accuracy is final test accuracy. PreDeletionAccuracy snapshots it just
	// before the first deletion request (nil without a schedule).
	Accuracy            float64  `json:"accuracy"`
	PreDeletionAccuracy *float64 `json:"pre_deletion_accuracy,omitempty"`
	// ASR is the cell's attack success rate, measured by its attack type's
	// own probe (nil without an attack); PreDeletionASR snapshots it before
	// the first deletion.
	ASR            *float64 `json:"attack_success_rate,omitempty"`
	PreDeletionASR *float64 `json:"pre_deletion_attack_success_rate,omitempty"`
	// MembershipGap is the confidence-based membership signal on the forget
	// set (nil when nothing was deleted).
	MembershipGap *float64 `json:"membership_gap,omitempty"`
	// VsRetrain compares the cell's final model against the retrain
	// reference cell of the same seed and attack type.
	VsRetrain *Comparison `json:"vs_retrain,omitempty"`
	// Error records a failed cell; all metric fields are zero then.
	Error string `json:"error,omitempty"`
}

// Report is the structured outcome of a scenario run. For a fixed Spec the
// report is deterministic — cells are ordered by the matrix expansion and
// carry no wall-clock state — so two runs marshal to identical bytes. An
// interrupted run's report holds only the cells that finished and is marked
// Incomplete; running the spec again produces the full report.
type Report struct {
	Name string `json:"name"`
	Spec Spec   `json:"spec"`
	// Incomplete marks an interrupted run: the report holds only the cells
	// that finished deterministically before cancellation.
	Incomplete bool         `json:"incomplete,omitempty"`
	Cells      []CellResult `json:"cells"`
}

// cellKey addresses one matrix cell by its axes. Spec.Validate rejects
// duplicate values on every axis, so the key is unique within a matrix.
type cellKey struct {
	strategy string
	seed     int64
	attack   string
}

func (k cellKey) String() string {
	s := fmt.Sprintf("%s/seed %d", k.strategy, k.seed)
	if k.attack != "" {
		s += "/" + k.attack
	}
	return s
}

// CompareFunc compares a cell's final model against the retrain reference
// of the same seed and attack type, from the two models' test-set
// probability rows (Outcome.Probs).
type CompareFunc func(cell Cell, probs, ref *tensor.Tensor) (*Comparison, error)

// Assemble builds the report from executed outcomes, outcomes[i] being the
// outcome of Spec.Cells()[i]: it fills the VsRetrain comparison for every
// non-reference cell whose retrain counterpart succeeded (when the strategy
// axis includes "retrain" and compare is non-nil) and returns the cells in
// matrix order.
//
// Canceled outcomes — cells an interrupted run never finished — are dropped
// from the report and mark it Incomplete, so every row a partial report does
// carry is exactly the row a completed run would carry; a non-reference cell
// whose retrain counterpart was canceled is likewise dropped, since its
// VsRetrain comparison cannot be computed the way a completed run would.
func Assemble(spec Spec, outcomes []Outcome, compare CompareFunc) (*Report, error) {
	cells := spec.Cells()
	if len(outcomes) != len(cells) {
		return nil, fmt.Errorf("scenario: %d outcomes for %d cells", len(outcomes), len(cells))
	}
	// Canonicalize execution knobs out of the embedded spec: the worker
	// bound affects scheduling only, and reports must be byte-identical at
	// any parallelism.
	spec.Workers = 0
	// Each (seed, attack) plane carries its own retrain reference: cells of
	// different attack types train on differently poisoned data.
	refs := map[cellKey]int{}
	for i, c := range cells {
		if c.Strategy == RetrainReference {
			refs[cellKey{c.Strategy, c.Seed, c.Attack}] = i
		}
	}
	rows := make([]CellResult, 0, len(cells))
	incomplete := false
	for i, c := range cells {
		o := outcomes[i]
		if o.Canceled {
			incomplete = true
			continue
		}
		row := o.Result
		// Label the row from the matrix itself; outcomes are positional.
		row.Strategy, row.Seed, row.Attack = c.Strategy, c.Seed, c.Attack
		if compare != nil && c.Strategy != RetrainReference && row.Error == "" && o.Probs != nil {
			if ri, ok := refs[cellKey{RetrainReference, c.Seed, c.Attack}]; ok {
				if outcomes[ri].Canceled {
					// The reference never finished; a completed run would
					// have compared against it, so this row is unusable.
					incomplete = true
					continue
				}
				if outcomes[ri].Probs != nil {
					cmp, err := compare(c, o.Probs, outcomes[ri].Probs)
					if err != nil {
						row.Error = fmt.Sprintf("comparing against retrain: %v", err)
					} else {
						row.VsRetrain = cmp
					}
				}
			}
		}
		rows = append(rows, row)
	}
	return &Report{Name: spec.Name, Spec: spec, Incomplete: incomplete, Cells: rows}, nil
}

// Complete verifies the report covers the spec's full matrix, in matrix
// order, with no failed cells, returning a descriptive error otherwise. CI
// gates on this.
func (r *Report) Complete() error {
	if r.Incomplete {
		return fmt.Errorf("scenario: report is marked incomplete (interrupted run)")
	}
	cells := r.Spec.Cells()
	if len(r.Cells) != len(cells) {
		return fmt.Errorf("scenario: report has %d cells, matrix has %d", len(r.Cells), len(cells))
	}
	for i, c := range cells {
		row := r.Cells[i]
		if row.Strategy != c.Strategy || row.Seed != c.Seed || row.Attack != c.Attack {
			return fmt.Errorf("scenario: cell %d is %s, want %s",
				i, cellKey{row.Strategy, row.Seed, row.Attack},
				cellKey{c.Strategy, c.Seed, c.Attack})
		}
		if row.Error != "" {
			return fmt.Errorf("scenario: cell %s failed: %s",
				cellKey{row.Strategy, row.Seed, row.Attack}, row.Error)
		}
	}
	return nil
}

// MarshalIndent renders the report as deterministic, indented JSON.
func (r *Report) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding report: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteJSON writes the report to path.
func (r *Report) WriteJSON(path string) error {
	b, err := r.MarshalIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// ParseReport decodes a report (full or partial) from JSON, rejecting
// unknown fields and validating the embedded spec and the rows — every row
// must name a distinct cell of the spec's matrix — so a corrupted or
// hand-edited report fails loudly before it can skew a Diff's t-test
// samples.
func ParseReport(b []byte) (*Report, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("scenario: parsing report: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after the report object")
	}
	if err := r.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: report spec: %w", err)
	}
	// Reports written before rows carried an attack stamp key as attack=""
	// while the matrix keys by the spec's attack type. With a single-type
	// attack the migration is unambiguous (multi-type specs postdate the
	// stamp), so adopt the spec's type instead of rejecting every legacy
	// baseline with a misleading matrix-membership error.
	if att := r.Spec.AttackList(); len(att) == 1 && att[0] != "" {
		for i := range r.Cells {
			if r.Cells[i].Attack == "" {
				r.Cells[i].Attack = att[0]
			}
		}
	}
	matrix := map[cellKey]bool{}
	for _, c := range r.Spec.Cells() {
		matrix[cellKey{c.Strategy, c.Seed, c.Attack}] = true
	}
	seen := map[cellKey]bool{}
	for _, row := range r.Cells {
		k := cellKey{row.Strategy, row.Seed, row.Attack}
		if !matrix[k] {
			return nil, fmt.Errorf("scenario: report cell %s is not in the spec's matrix", k)
		}
		if seen[k] {
			return nil, fmt.Errorf("scenario: report cell %s appears twice", k)
		}
		seen[k] = true
	}
	return &r, nil
}

// LoadReport reads and parses a report file written by WriteJSON.
func LoadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	r, err := ParseReport(b)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return r, nil
}

// RenderText writes a human-readable summary table of the matrix.
func (r *Report) RenderText(w io.Writer) {
	note := ""
	if r.Incomplete {
		note = ", INCOMPLETE"
	}
	fmt.Fprintf(w, "=== scenario %s — %s (%d cells%s) ===\n", r.Name, r.Spec.Dataset, len(r.Cells), note)
	cols := []string{"strategy", "seed", "attack", "rounds", "removed", "pre-acc", "acc", "pre-asr", "asr", "memgap", "jsd-vs-retrain", "error"}
	rows := make([][]string, 0, len(r.Cells))
	opt := func(v *float64) string {
		if v == nil {
			return "-"
		}
		return fmt.Sprintf("%.4f", *v)
	}
	for _, c := range r.Cells {
		removed := fmt.Sprintf("%d", c.RemovedRows)
		if c.RemovedClients > 0 {
			removed += fmt.Sprintf("+%dcl", c.RemovedClients)
		}
		jsd := "-"
		if c.VsRetrain != nil {
			jsd = fmt.Sprintf("%.4f", c.VsRetrain.JSD)
		}
		atk := c.Attack
		if atk == "" {
			atk = "-"
		}
		rows = append(rows, []string{
			c.Strategy,
			fmt.Sprintf("%d", c.Seed),
			atk,
			fmt.Sprintf("%d", c.Rounds),
			removed,
			opt(c.PreDeletionAccuracy),
			fmt.Sprintf("%.4f", c.Accuracy),
			opt(c.PreDeletionASR),
			opt(c.ASR),
			opt(c.MembershipGap),
			jsd,
			c.Error,
		})
	}
	renderTable(w, cols, rows)
}
