package unlearn

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"goldfish/internal/data"
)

// strategyFederation builds a 3-client tiny-MNIST federation running the
// named strategy; the same name always yields the same bits.
func strategyFederation(t *testing.T, name string, train *data.Dataset) (*Federation, []*data.Dataset) {
	t.Helper()
	parts, err := data.PartitionIID(train, 3, rand.New(rand.NewSource(30)))
	if err != nil {
		t.Fatal(err)
	}
	return federationOver(t, name, parts), parts
}

// federationOver builds a federation running the named strategy over the
// given partitions.
func federationOver(t *testing.T, name string, parts []*data.Dataset) *Federation {
	t.Helper()
	cfg := testConfig(10)
	if name == "fisher" {
		cfg.Opt.LR = 0.01 // preconditioned steps are larger; lower LR
	}
	f, err := NewFederation(Config{Client: cfg, Strategy: name}, parts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// trainerSamples is the size of the view participant i's trainer trains on.
func trainerSamples(t *testing.T, f *Federation, i int) int {
	t.Helper()
	c := f.Client(i)
	if c == nil {
		t.Fatalf("no client %d under strategy %s", i, f.name)
	}
	return c.NumActive()
}

// TestTrainerViewTracksRemainingRows: across two requests the federation's
// removed set and the trainer's own view stay the same set — the original
// rows minus {0,1,2,10} — and the next round uploads that sample count.
// (internal/baselines asserts the view row by row.)
func TestTrainerViewTracksRemainingRows(t *testing.T) {
	train, _ := tinyMNIST(t)
	for _, name := range strategyNames() {
		t.Run(name, func(t *testing.T) {
			f, parts := strategyFederation(t, name, train)
			ctx := context.Background()
			if err := f.Run(ctx, 1, nil); err != nil {
				t.Fatal(err)
			}
			if err := f.RequestDeletion(0, []int{0, 1, 2}); err != nil {
				t.Fatal(err)
			}
			if err := f.RequestDeletion(0, []int{10}); err != nil {
				t.Fatal(err)
			}
			want := parts[0].Len() - 4
			if got := len(f.RemainingRows(0)); got != want {
				t.Errorf("RemainingRows(0) has %d rows, want %d", got, want)
			}
			if got := trainerSamples(t, f, 0); got != want {
				t.Errorf("trainer 0 trains on %d rows, want %d", got, want)
			}
			uploaded := -1
			if err := f.Run(ctx, 1, func(rs RoundStats) {
				for _, u := range rs.Updates {
					if u.ClientID == 0 {
						uploaded = u.NumSamples
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
			if uploaded != want {
				t.Errorf("client 0 uploaded NumSamples = %d, want %d", uploaded, want)
			}
		})
	}
}

// TestRowOrderWithinARequestIsIrrelevant (ROADMAP 5b): permuting the rows of
// one request leaves the final global model bit-identical.
func TestRowOrderWithinARequestIsIrrelevant(t *testing.T) {
	train, _ := tinyMNIST(t)
	ctx := context.Background()
	for _, name := range strategyNames() {
		t.Run(name, func(t *testing.T) {
			var finals [][]float64
			for _, rows := range [][]int{{1, 3, 7, 12, 20}, {12, 1, 20, 7, 3}} {
				f, _ := strategyFederation(t, name, train)
				if err := f.Run(ctx, 2, nil); err != nil {
					t.Fatal(err)
				}
				if err := f.RequestDeletion(0, rows); err != nil {
					t.Fatal(err)
				}
				if err := f.Run(ctx, 2, nil); err != nil {
					t.Fatal(err)
				}
				finals = append(finals, f.Global())
			}
			if !reflect.DeepEqual(finals[0], finals[1]) {
				t.Error("permuting one request's rows changed the final global model")
			}
		})
	}
}

// TestFailedRequestChangesNothing (ROADMAP 5b): a request with one bad row
// among good ones — out of range, already removed, or listed twice — or one
// that would leave the client with no rows at all is
// rejected whole. RemainingRows, the trainer's view and the global model are
// untouched, and training continues bit-identically to a twin federation
// that never saw the rejected requests.
func TestFailedRequestChangesNothing(t *testing.T) {
	train, _ := tinyMNIST(t)
	ctx := context.Background()
	for _, name := range strategyNames() {
		t.Run(name, func(t *testing.T) {
			f, parts := strategyFederation(t, name, train)
			twin, _ := strategyFederation(t, name, train)
			for _, fed := range []*Federation{f, twin} {
				if err := fed.Run(ctx, 2, nil); err != nil {
					t.Fatal(err)
				}
				if err := fed.RequestDeletion(0, []int{0, 1, 2}); err != nil {
					t.Fatal(err)
				}
				if err := fed.Run(ctx, 1, nil); err != nil {
					t.Fatal(err)
				}
			}
			remaining, samples, global := f.RemainingRows(0), trainerSamples(t, f, 0), f.Global()
			for _, rows := range [][]int{
				{4, 5, parts[0].Len()}, // out of range
				{4, 1, 5},              // row 1 already removed
				{4, 5, 4},              // listed twice
				{-1, 4},
				remaining, // every row the client has left
			} {
				if err := f.RequestDeletion(0, rows); err == nil {
					t.Fatalf("request %v accepted", rows)
				}
			}
			if !reflect.DeepEqual(f.RemainingRows(0), remaining) {
				t.Error("a rejected request changed RemainingRows")
			}
			if got := trainerSamples(t, f, 0); got != samples {
				t.Errorf("a rejected request changed the trainer's view: %d rows, was %d", got, samples)
			}
			if !reflect.DeepEqual(f.Global(), global) {
				t.Error("a rejected request changed the global model")
			}
			for _, fed := range []*Federation{f, twin} {
				unlearning := false
				if err := fed.Run(ctx, 2, func(rs RoundStats) { unlearning = unlearning || rs.UnlearningRound }); err != nil {
					t.Fatal(err)
				}
				if unlearning {
					t.Error("a round after only rejected requests was marked as unlearning")
				}
			}
			if !reflect.DeepEqual(f.Global(), twin.Global()) {
				t.Error("rejected requests changed later training")
			}
		})
	}
}

// TestRejectedClassDeletionChangesNothing: a class deletion is validated for
// every participant before any is applied. Client 1 holds nothing but the
// deleted class, so its share of the request would leave it without rows;
// the whole request is rejected and clients 0 and 2, which precede and
// follow it, keep their rows of that class.
func TestRejectedClassDeletionChangesNothing(t *testing.T) {
	train, _ := tinyMNIST(t)
	const class = 3
	ofClass := train.RowsOfClass(class)
	mixed, err := data.PartitionIID(train.Remove(ofClass[:10]), 2, rand.New(rand.NewSource(30)))
	if err != nil {
		t.Fatal(err)
	}
	parts := []*data.Dataset{mixed[0], train.Subset(ofClass[:10]), mixed[1]}
	for _, name := range strategyNames() {
		t.Run(name, func(t *testing.T) {
			f := federationOver(t, name, parts)
			if err := f.Run(context.Background(), 1, nil); err != nil {
				t.Fatal(err)
			}
			global := f.Global()
			if len(f.RemainingRowsOfClass(0, class)) == 0 || len(f.RemainingRowsOfClass(2, class)) == 0 {
				t.Fatal("fixture: clients 0 and 2 must hold the class too")
			}
			if removed, err := f.RequestClassDeletion(class); err == nil {
				t.Fatalf("class deletion emptying client 1 accepted: %v", removed)
			}
			for i, p := range parts {
				if got := len(f.RemainingRows(i)); got != p.Len() {
					t.Errorf("client %d has %d rows after the rejected request, want %d", i, got, p.Len())
				}
			}
			if !reflect.DeepEqual(f.Global(), global) {
				t.Error("a rejected class deletion changed the global model")
			}
		})
	}
}

// TestApplyRejectedDeletionsChangeNothing: in a batch mixing valid and
// rejected deletions, the rejected ones leave no trace. The federation ends
// with the remaining rows, global model and restart count of a twin that
// applied only the valid ones, and trains on identically; a batch of
// rejected deletions alone changes nothing and starts no unlearning round.
func TestApplyRejectedDeletionsChangeNothing(t *testing.T) {
	train, _ := tinyMNIST(t)
	ctx := context.Background()
	for _, name := range strategyNames() {
		t.Run(name, func(t *testing.T) {
			mixed, parts := strategyFederation(t, name, train)
			twin, _ := strategyFederation(t, name, train)
			for _, f := range []*Federation{mixed, twin} {
				if err := f.Run(ctx, 1, nil); err != nil {
					t.Fatal(err)
				}
			}
			good := []Deletion{
				{Kind: KindSample, Client: 0, Rows: []int{4, 2}},
				{Kind: KindSample, Client: 1, Rows: []int{0}},
			}
			bad := []Deletion{
				{Kind: KindSample, Client: 0, Rows: []int{2}}, // removed earlier in the batch
				{Kind: KindSample, Client: 0, Rows: []int{parts[0].Len()}},
				{Kind: KindSample, Client: 2, Rows: []int{3, 3}},
				{Kind: KindSample, Client: 2},
				{Kind: KindSample, Client: 5, Rows: []int{0}},
				{Kind: KindSample, Client: 1, Rows: mixed.RemainingRows(1)[1:]}, // all but row 0, which went first
				{Kind: KindClass, Class: 10},
				{Kind: KindClient, Client: 7},
				{Kind: "bogus"},
			}
			batch := append(slices.Clone(good), bad...)
			for i, o := range mixed.Apply(batch) {
				if rejected := i >= len(good); rejected != (o.Err != nil) || rejected != (o.Rows == nil) {
					t.Errorf("deletion %d %+v: outcome %v, want rejected = %v", i, batch[i], o, rejected)
				}
			}
			for i, o := range twin.Apply(good) {
				if o.Err != nil {
					t.Fatalf("valid deletion %d: %v", i, o.Err)
				}
			}

			same := func(when string) {
				t.Helper()
				for i := range parts {
					if !reflect.DeepEqual(mixed.RemainingRows(i), twin.RemainingRows(i)) {
						t.Errorf("%s: client %d remaining rows differ from the twin's", when, i)
					}
				}
				if !reflect.DeepEqual(mixed.Global(), twin.Global()) {
					t.Errorf("%s: global model differs from the twin's", when)
				}
				if mixed.reinits != twin.reinits {
					t.Errorf("%s: %d restarts, the twin %d", when, mixed.reinits, twin.reinits)
				}
			}
			same("after the batch")

			for i, o := range mixed.Apply(bad) {
				if o.Err == nil {
					t.Errorf("lone deletion %d %+v accepted", i, bad[i])
				}
			}
			same("after a batch of rejected deletions")
			for _, f := range []*Federation{mixed, twin} {
				if err := f.Run(ctx, 1, nil); err != nil {
					t.Fatal(err)
				}
			}
			same("after the next round")
			unlearning := false
			if err := mixed.Run(ctx, 1, func(rs RoundStats) { unlearning = rs.UnlearningRound }); err != nil {
				t.Fatal(err)
			}
			if unlearning {
				t.Error("a round after only rejected deletions was marked as unlearning")
			}
		})
	}
}
