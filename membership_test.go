package goldfish_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"goldfish"
)

// membershipEngine builds a tiny-MNIST engine over n IID clients running
// the named strategy, and returns it with its partitions.
func membershipEngine(t *testing.T, strategy string, n int) (*goldfish.Engine, []*goldfish.Dataset) {
	t.Helper()
	p, err := goldfish.NewPreset("mnist", goldfish.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := goldfish.PartitionIID(train, n, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := goldfish.New(
		goldfish.WithPreset(p),
		goldfish.WithPartitions(parts),
		goldfish.WithClientConfig(fastConfig(p)),
		goldfish.WithUnlearner(strategy),
	)
	if err != nil {
		t.Fatal(err)
	}
	return e, parts
}

// TestPartitionsTrackMembership: Partitions follows every client departure,
// whichever path removes the client, and never rewrites a slice an earlier
// call returned. The engine used to keep its own partition list beside the
// federation's: a departure through the deletion service left it stale, and
// RemoveClient shifted it in place under the caller.
func TestPartitionsTrackMembership(t *testing.T) {
	cases := []struct {
		name   string
		remove func(t *testing.T, e *goldfish.Engine)
		want   []int // the original positions left, in order
	}{
		{"deletion service", func(t *testing.T, e *goldfish.Engine) {
			svc, err := e.NewDeletionService(goldfish.DeletionServiceConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Enqueue(goldfish.DeletionRequest{Kind: goldfish.DeleteClient, Client: 1}); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
		}, []int{0, 2}},
		{"RemoveClient", func(t *testing.T, e *goldfish.Engine) {
			if err := e.RemoveClient(0, true); err != nil {
				t.Fatal(err)
			}
		}, []int{1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, parts := membershipEngine(t, "goldfish", 3)
			held := e.Partitions()
			tc.remove(t, e)
			if e.NumClients() != len(tc.want) {
				t.Fatalf("NumClients = %d, want %d", e.NumClients(), len(tc.want))
			}
			want := make([]*goldfish.Dataset, len(tc.want))
			for i, pos := range tc.want {
				want[i] = parts[pos]
			}
			if got := e.Partitions(); !slices.Equal(got, want) {
				t.Errorf("Partitions() has %d datasets after the departure, want %d in original positions %v",
					len(got), len(want), tc.want)
			}
			if !slices.Equal(held, parts) {
				t.Error("the departure rewrote a slice an earlier Partitions() call returned")
			}
		})
	}
}

// TestRejectedMembershipChangeChangesNothing: a membership change the
// federation refuses leaves its clients, their partitions, their remaining
// rows and the global model exactly as they were.
func TestRejectedMembershipChangeChangesNothing(t *testing.T) {
	cases := []struct {
		name     string
		strategy string
		clients  int
		change   func(e *goldfish.Engine, parts []*goldfish.Dataset) error
	}{
		{"B3 AddClient", "incompetent-teacher", 3, func(e *goldfish.Engine, parts []*goldfish.Dataset) error {
			_, err := e.AddClient(parts[0].Clone())
			return err
		}},
		{"B3 RemoveClient", "incompetent-teacher", 3, func(e *goldfish.Engine, _ []*goldfish.Dataset) error {
			return e.RemoveClient(1, true)
		}},
		{"AddClient without data", "goldfish", 3, func(e *goldfish.Engine, _ []*goldfish.Dataset) error {
			_, err := e.AddClient(nil)
			return err
		}},
		{"out-of-range position", "goldfish", 3, func(e *goldfish.Engine, _ []*goldfish.Dataset) error {
			return e.RemoveClient(3, true)
		}},
		{"negative position", "retrain", 3, func(e *goldfish.Engine, _ []*goldfish.Dataset) error {
			return e.RemoveClient(-1, false)
		}},
		{"last client", "goldfish", 1, func(e *goldfish.Engine, _ []*goldfish.Dataset) error {
			return e.RemoveClient(0, true)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, parts := membershipEngine(t, tc.strategy, tc.clients)
			if err := e.RequestDeletion(0, []int{0, 1}); err != nil {
				t.Fatal(err)
			}
			n, held, global := e.NumClients(), e.Partitions(), e.Global()
			remaining := make([][]int, n)
			for i := range remaining {
				remaining[i] = e.RemainingRows(i)
			}
			if err := tc.change(e, parts); err == nil {
				t.Fatal("membership change accepted")
			}
			if e.NumClients() != n {
				t.Errorf("NumClients = %d, want %d", e.NumClients(), n)
			}
			if !slices.Equal(e.Partitions(), held) {
				t.Error("Partitions changed")
			}
			for i, rows := range remaining {
				if !slices.Equal(e.RemainingRows(i), rows) {
					t.Errorf("RemainingRows(%d) changed", i)
				}
			}
			if !slices.EqualFunc(e.Global(), global, func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
				t.Error("global model changed")
			}
		})
	}
}
