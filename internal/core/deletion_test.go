package core_test

import (
	"context"
	"math/rand"
	"testing"

	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/unlearn"
)

// TestRequestDeletionValidation: every procedure takes the same deletion
// requests — original rows, in range, not removed before, listed once, and
// at least one row left — and a rejected request changes nothing. A client
// takes deletions only through ForgetAt, which its federation's Apply calls
// after the one deletion check, so the requests go through a federation.
func TestRequestDeletionValidation(t *testing.T) {
	train, _ := core.TinyMNIST(t)
	parts, err := data.PartitionIID(train, 2, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	n := parts[0].Len()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for _, name := range []string{"goldfish", "retrain", "fisher", "incompetent-teacher"} {
		t.Run(name, func(t *testing.T) {
			f, err := unlearn.NewFederation(unlearn.Config{Client: core.TestConfig(10), Strategy: name}, parts)
			if err != nil {
				t.Fatal(err)
			}
			active := n
			for _, tc := range []struct {
				name string
				rows []int
				ok   bool
			}{
				{"empty request", nil, false},
				{"negative row", []int{-1}, false},
				{"out-of-range row", []int{n}, false},
				// Every later round would fail with no remaining data.
				{"every row", all, false},
				{"valid request", []int{0, 1, 2}, true},
				{"double removal", []int{1}, false},
				// A row listed twice would enter Df twice and be forgotten
				// at double weight.
				{"row listed twice", []int{5, 5}, false},
				{"every remaining row", all[3:], false},
				{"second request merges", []int{5}, true},
			} {
				err := f.RequestDeletion(0, tc.rows)
				if tc.ok && err != nil {
					t.Fatalf("%s rejected: %v", tc.name, err)
				}
				if !tc.ok && err == nil {
					t.Errorf("%s accepted", tc.name)
				}
				if tc.ok {
					active -= len(tc.rows)
				}
				if got := f.Client(0).NumActive(); got != active {
					t.Errorf("after %s: NumActive = %d, want %d", tc.name, got, active)
				}
			}
			if err := f.Run(context.Background(), 1, nil); err != nil {
				t.Errorf("round after deletions: %v", err)
			}
		})
	}
}
