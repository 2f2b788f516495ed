package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// ShardRef identifies one machine shard of a distributed matrix run: shard
// Index of Count, 1-based, written "i/n" on the command line and in partial
// reports.
type ShardRef struct {
	Index int
	Count int
}

// ParseShardRef parses an "i/n" shard reference with 1 ≤ i ≤ n.
func ParseShardRef(s string) (ShardRef, error) {
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return ShardRef{}, fmt.Errorf("scenario: shard %q is not of the form i/n", s)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(i))
	if err != nil {
		return ShardRef{}, fmt.Errorf("scenario: shard index %q: %w", i, err)
	}
	cnt, err := strconv.Atoi(strings.TrimSpace(n))
	if err != nil {
		return ShardRef{}, fmt.Errorf("scenario: shard count %q: %w", n, err)
	}
	r := ShardRef{Index: idx, Count: cnt}
	if err := r.Validate(); err != nil {
		return ShardRef{}, err
	}
	return r, nil
}

// IsZero reports whether the reference is unset (a whole-matrix run).
func (r ShardRef) IsZero() bool { return r == ShardRef{} }

// Validate checks 1 ≤ Index ≤ Count.
func (r ShardRef) Validate() error {
	if r.Count < 1 {
		return fmt.Errorf("scenario: shard count %d must be ≥1", r.Count)
	}
	if r.Index < 1 || r.Index > r.Count {
		return fmt.Errorf("scenario: shard index %d out of [1,%d]", r.Index, r.Count)
	}
	return nil
}

// String renders the reference as "i/n" ("" when unset).
func (r ShardRef) String() string {
	if r.IsZero() {
		return ""
	}
	return fmt.Sprintf("%d/%d", r.Index, r.Count)
}

// ShardCells returns the deterministic subset of the spec's matrix assigned
// to the given machine shard, in Cells() order with original matrix indices.
//
// The unit of assignment is the (seed, attack) group — every strategy's
// cell for one seed and attack probe — handed round-robin to shards in
// seed-major, attack-minor order. Grouping this way
// co-locates each "retrain" reference cell with all the cells that compare
// against it, so VsRetrain stays computable inside a single shard and a
// merged report is byte-identical to an unsharded run. A zero ref selects
// the whole matrix; a shard beyond the group count is valid but empty.
func (s Spec) ShardCells(ref ShardRef) ([]Cell, error) {
	cells := s.Cells()
	if ref.IsZero() {
		return cells, nil
	}
	if err := ref.Validate(); err != nil {
		return nil, err
	}
	attacks := s.AttackList()
	seedPos := make(map[int64]int, len(s.SeedList()))
	for i, seed := range s.SeedList() {
		seedPos[seed] = i
	}
	attackPos := make(map[string]int, len(attacks))
	for i, a := range attacks {
		attackPos[a] = i
	}
	var out []Cell
	for _, c := range cells {
		group := seedPos[c.Seed]*len(attacks) + attackPos[c.Attack]
		if group%ref.Count == ref.Index-1 {
			out = append(out, c)
		}
	}
	return out, nil
}
