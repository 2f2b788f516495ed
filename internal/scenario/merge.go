package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
)

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

// Merge recombines partial reports of one spec — machine shards from
// ShardCells runs and/or the completed prefix of an interrupted run — into a
// single report byte-identical to a single-machine run of the whole matrix.
//
// Every input must embed the same spec (compared on canonical JSON, so the
// scheduling-only Workers knob is ignored); a cell present in two inputs is
// an overlap error, a matrix cell present in none is a missing-cell error
// naming the gap, so a botched split fails loudly instead of producing a
// silently short report. Rows are reordered into matrix order regardless of
// which input carried them, and the shard/incomplete markers of the inputs
// are dropped from the merged result.
//
// One overlap is legitimate: resuming an interrupted run. When either input
// of an overlapping pair is marked Incomplete and the two rows are
// identical — which determinism guarantees for a re-run of the same spec —
// the duplicate is deduped instead of rejected, so `-merge interrupted.json
// rerun.json` recovers the run. Differing rows still error (the code or
// spec changed between the runs).
func Merge(reports ...*Report) (*Report, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("scenario: merge needs at least one report")
	}
	for i, r := range reports {
		if r == nil {
			return nil, fmt.Errorf("scenario: merge input %d is nil", i)
		}
	}
	spec := reports[0].Spec
	spec.Workers = 0
	want, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding spec: %w", err)
	}
	cells := spec.Cells()
	index := make(map[cellKey]int, len(cells))
	for _, c := range cells {
		index[cellKey{c.Strategy, c.Seed, c.Attack}] = c.Index
	}
	rows := make([]*CellResult, len(cells))
	source := make([]int, len(cells))
	for ri, r := range reports {
		rspec := r.Spec
		rspec.Workers = 0
		got, err := json.Marshal(rspec)
		if err != nil {
			return nil, fmt.Errorf("scenario: encoding spec: %w", err)
		}
		if !bytes.Equal(got, want) {
			return nil, fmt.Errorf("scenario: merge input %d was run from a different spec than input 0", ri)
		}
		for _, row := range r.Cells {
			k := cellKey{row.Strategy, row.Seed, row.Attack}
			i, ok := index[k]
			if !ok {
				return nil, fmt.Errorf("scenario: merge input %d has cell %s, which is not in the spec's matrix", ri, k)
			}
			if rows[i] != nil {
				if source[i] == ri {
					// Duplication inside one report is corruption, never a
					// resume overlap.
					return nil, fmt.Errorf("scenario: cell %s appears twice in merge input %d", k, ri)
				}
				if reflect.DeepEqual(*rows[i], row) &&
					(reports[source[i]].Incomplete || r.Incomplete) {
					continue // resume dedupe: identical row from an interrupted run
				}
				return nil, fmt.Errorf("scenario: cell %s appears in both merge input %d and input %d",
					k, source[i], ri)
			}
			row := row
			rows[i] = &row
			source[i] = ri
		}
	}
	var missing []string
	for i, c := range cells {
		if rows[i] == nil {
			missing = append(missing, cellKey{c.Strategy, c.Seed, c.Attack}.String())
		}
	}
	if total := len(missing); total > 0 {
		const show = 8
		suffix := ""
		if total > show {
			suffix = ", …"
			missing = missing[:show]
		}
		return nil, fmt.Errorf("scenario: merge is missing %d of %d matrix cells: %s%s",
			total, len(cells), strings.Join(missing, "; "), suffix)
	}
	out := make([]CellResult, len(cells))
	for i, row := range rows {
		out[i] = *row
	}
	return &Report{Name: spec.Name, Spec: spec, Cells: out}, nil
}
