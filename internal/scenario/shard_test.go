package scenario

import (
	"fmt"
	"testing"
)

func TestParseShardRef(t *testing.T) {
	good := map[string]ShardRef{
		"1/1":   {1, 1},
		"2/3":   {2, 3},
		"3/3":   {3, 3},
		" 1/2 ": {1, 2}, // tolerated whitespace
	}
	for in, want := range good {
		got, err := ParseShardRef(in)
		if err != nil {
			t.Errorf("ParseShardRef(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseShardRef(%q) = %+v, want %+v", in, got, want)
		}
		if got.String() != fmt.Sprintf("%d/%d", want.Index, want.Count) {
			t.Errorf("String() = %q", got.String())
		}
	}
	for _, in := range []string{"", "1", "0/2", "3/2", "-1/2", "1/0", "a/b", "1/2/3", "1.5/2"} {
		if _, err := ParseShardRef(in); err == nil {
			t.Errorf("ParseShardRef(%q) accepted", in)
		}
	}
	if !(ShardRef{}).IsZero() {
		t.Error("zero ShardRef not IsZero")
	}
	if (ShardRef{}).String() != "" {
		t.Error("zero ShardRef renders non-empty")
	}
}

func shardSpec() Spec {
	return Spec{
		Name:       "shards",
		Dataset:    "mnist",
		Scale:      "tiny",
		Rounds:     4,
		Strategies: []string{"goldfish", "fisher", "retrain"},
		Seeds:      []int64{1, 2, 5, 6, 8, 9},
	}
}

// TestShardCellsPartition is the core sharding property: for any shard
// count, the shards partition the matrix — every cell lands in exactly one
// shard, with its original matrix index, in matrix order.
func TestShardCellsPartition(t *testing.T) {
	spec := shardSpec()
	all := spec.Cells()
	for n := 1; n <= 9; n++ { // 6 groups, so n > 6 leaves empty shards
		seen := make([]int, len(all))
		for i := 1; i <= n; i++ {
			cells, err := spec.ShardCells(ShardRef{Index: i, Count: n})
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, n, err)
			}
			last := -1
			for _, c := range cells {
				if c != all[c.Index] {
					t.Errorf("shard %d/%d carries cell %+v, matrix has %+v", i, n, c, all[c.Index])
				}
				if c.Index <= last {
					t.Errorf("shard %d/%d not in matrix order", i, n)
				}
				last = c.Index
				seen[c.Index]++
			}
		}
		for idx, count := range seen {
			if count != 1 {
				t.Errorf("n=%d: cell %d assigned to %d shards", n, idx, count)
			}
		}
	}
}

// TestShardCellsColocatesRetrain checks the constraint that makes VsRetrain
// computable per shard: every shard containing a non-reference cell also
// contains the retrain cell of the same seed.
func TestShardCellsColocatesRetrain(t *testing.T) {
	spec := shardSpec()
	for n := 1; n <= 7; n++ {
		for i := 1; i <= n; i++ {
			cells, err := spec.ShardCells(ShardRef{Index: i, Count: n})
			if err != nil {
				t.Fatal(err)
			}
			refs := map[int64]bool{}
			for _, c := range cells {
				if c.Strategy == RetrainReference {
					refs[c.Seed] = true
				}
			}
			for _, c := range cells {
				if c.Strategy != RetrainReference && !refs[c.Seed] {
					t.Errorf("shard %d/%d has %s/seed %d without its retrain reference",
						i, n, c.Strategy, c.Seed)
				}
			}
		}
	}
}

// TestShardCellsAttackAxis extends both sharding properties to the attack
// dimension: with an attack axis the shards still partition the matrix
// exactly, and every shard keeps the retrain reference of each
// (seed, attack) group co-located with its comparands — references of one
// attack plane must not be used for another, since the planes train on
// differently poisoned data.
func TestShardCellsAttackAxis(t *testing.T) {
	spec := shardSpec()
	spec.Attack = &AttackSpec{
		Types: []string{"backdoor", "label-flip", "targeted-class"}, Fraction: 0.3, TargetLabel: 0, SourceClass: 1,
	}
	all := spec.Cells()
	if len(all) != 3*6*3 {
		t.Fatalf("matrix has %d cells, want 54", len(all))
	}
	for n := 1; n <= 8; n++ {
		seen := make([]int, len(all))
		for i := 1; i <= n; i++ {
			cells, err := spec.ShardCells(ShardRef{Index: i, Count: n})
			if err != nil {
				t.Fatal(err)
			}
			type key struct {
				seed   int64
				attack string
			}
			refs := map[key]bool{}
			for _, c := range cells {
				if c != all[c.Index] {
					t.Errorf("shard %d/%d carries cell %+v, matrix has %+v", i, n, c, all[c.Index])
				}
				seen[c.Index]++
				if c.Strategy == RetrainReference {
					refs[key{c.Seed, c.Attack}] = true
				}
			}
			for _, c := range cells {
				if c.Strategy != RetrainReference && !refs[key{c.Seed, c.Attack}] {
					t.Errorf("shard %d/%d has %s/seed %d/%s without its retrain reference",
						i, n, c.Strategy, c.Seed, c.Attack)
				}
			}
		}
		for idx, count := range seen {
			if count != 1 {
				t.Errorf("n=%d: cell %d assigned to %d shards", n, idx, count)
			}
		}
	}
}

func TestShardCellsZeroRefAndValidation(t *testing.T) {
	spec := shardSpec()
	cells, err := spec.ShardCells(ShardRef{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(spec.Cells()) {
		t.Errorf("zero ref selected %d of %d cells", len(cells), len(spec.Cells()))
	}
	if _, err := spec.ShardCells(ShardRef{Index: 3, Count: 2}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := spec.ShardCells(ShardRef{Index: 0, Count: 2}); err == nil {
		t.Error("zero shard index accepted")
	}
	// More shards than groups: valid, just empty.
	cells, err = spec.ShardCells(ShardRef{Index: 7, Count: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Errorf("shard beyond the group count got %d cells", len(cells))
	}
}

func TestShardCellsDeterministic(t *testing.T) {
	spec := shardSpec()
	a, err := spec.ShardCells(ShardRef{Index: 2, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.ShardCells(ShardRef{Index: 2, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("cell %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
