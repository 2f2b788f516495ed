package unlearn

import (
	"cmp"
	"fmt"
	"slices"

	"goldfish/internal/core"
	"goldfish/internal/model"
	"goldfish/internal/obs"
)

// Kind classifies a deletion.
type Kind string

// The three deletion kinds.
const (
	// KindSample deletes specific rows of one client's ORIGINAL dataset.
	KindSample Kind = "sample"
	// KindClass deletes every remaining sample of one label class, across
	// all clients.
	KindClass Kind = "class"
	// KindClient removes one participant entirely, unlearning its remaining
	// data.
	KindClient Kind = "client"
)

// Deletion is one deletion request, as every entry point states it: the
// public API, the deletion service's POST /unlearn body and a scenario
// schedule entry all build one and hand it to Federation.Apply.
type Deletion struct {
	// Kind selects what is deleted: "sample", "class" or "client".
	Kind Kind `json:"kind"`
	// Client is the target participant's current position (sample and
	// client kinds).
	Client int `json:"client,omitempty"`
	// Rows are original-dataset row indices to delete (sample kind).
	Rows []int `json:"rows,omitempty"`
	// Class is the label class to delete (class kind).
	Class int `json:"class,omitempty"`
}

// Outcome is what Apply did with one deletion of its batch.
type Outcome struct {
	// Rows are the original rows the deletion removed, in ascending order,
	// keyed by the client's position before the batch; nil when rejected.
	Rows map[int][]int
	// Err is the rejection; nil when the deletion was applied.
	Err error
}

// Apply applies a batch of deletions as one unlearning event (Algorithm 1
// lines 8–17) and returns one outcome per deletion, in batch order. It is
// the only code that removes a client's rows or restarts the global model.
//
// Deletions apply in a fixed order whatever the batch order: sample
// deletions by ascending client, class deletions by ascending class, then
// client removals by descending position, so that no removal shifts a later
// target. Positions are those before the batch. Each deletion is checked
// against the state the ones before it leave, and a rejected one changes
// nothing: a sample deletion's rows must be in range, not removed before,
// listed once, and leave the client a row; a class deletion is rejected
// whole if its share would empty any client. Then each owner forgets its
// rows with the current global model at hand (B3 freezes it as its
// teacher), every other remaining client is told once that data was
// deleted, and the global model restarts once, from a fresh model built
// before anything changed, when the procedure asks for it.
func (f *Federation) Apply(batch []Deletion) []Outcome {
	out := make([]Outcome, len(batch))
	b := &pending{f: f, remaining: map[int][]int{}, forget: map[int][]int{}}
	order := make([]int, len(batch))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int {
		ri, ki := applyRank(batch[i])
		rj, kj := applyRank(batch[j])
		return cmp.Or(cmp.Compare(ri, rj), cmp.Compare(ki, kj))
	})
	var accepted []int
	for _, i := range order {
		if out[i].Rows, out[i].Err = b.stage(batch[i]); out[i].Err == nil {
			accepted = append(accepted, i)
		}
	}
	if len(accepted) == 0 {
		return out
	}
	next, err := f.fresh()
	if err != nil {
		for _, i := range accepted {
			out[i] = Outcome{Err: err}
		}
		return out
	}

	sp := f.obs.StartSpan("unlearn/forget", obs.Str("strategy", f.name))
	global := f.engine.Global()
	for i, c := range f.clients {
		if slices.Contains(b.leaving, i) {
			continue
		}
		if rows := b.forget[i]; len(rows) > 0 {
			f.obs.Event("unlearn/request",
				obs.Str("strategy", f.name), obs.Int("client", i), obs.Int("rows", len(rows)))
		}
		core.ForgetAt(c, b.forget[i], global)
	}
	for _, i := range b.leaving {
		f.drop(i)
		f.obs.Event("unlearn/client_removed", obs.Str("strategy", f.name), obs.Int("client", i), obs.Int("unlearn", 1))
	}
	if next != nil {
		f.reinits++
		f.engine.SetGlobal(next)
	}
	sp.End()
	f.pendingUnlearn = true
	for range accepted {
		f.obs.Counter("unlearn.requests").Inc()
		f.markForget()
	}
	return out
}

// applyRank orders a batch: kind first, then the key within the kind.
func applyRank(d Deletion) (kind, key int) {
	switch d.Kind {
	case KindSample:
		return 0, d.Client
	case KindClass:
		return 1, d.Class
	case KindClient:
		return 2, -d.Client
	}
	return 3, 0
}

// fresh builds the freshly initialized global model the next reinit starts
// from, or returns nil when the procedure keeps the current one.
func (f *Federation) fresh() ([]float64, error) {
	if f.proc.ReinitSeed == nil {
		return nil, nil
	}
	mcfg := f.cfg.Client.Model
	mcfg.Seed = f.proc.ReinitSeed(f.cfg.Client, f.reinits+1)
	net, err := model.Build(mcfg)
	if err != nil {
		return nil, fmt.Errorf("unlearn: reinitializing global model: %w", err)
	}
	return net.StateVector(), nil
}

// pending is the state a batch has staged so far, by client position
// before the batch; nothing in the federation changes until Apply commits.
type pending struct {
	f *Federation
	// remaining holds each touched client's remaining rows, ascending.
	remaining map[int][]int
	// forget holds the rows each owner forgets, in the order accepted.
	forget map[int][]int
	// leaving holds the positions removed, in descending order.
	leaving []int
}

// rows returns client i's remaining rows as the batch has left them.
func (b *pending) rows(i int) []int {
	rem, ok := b.remaining[i]
	if !ok {
		rem = core.RemainingRows(b.f.clients[i])
		b.remaining[i] = rem
	}
	return rem
}

// stage checks one deletion against the staged state and, when it is
// accepted, stages it and returns the rows it removes.
func (b *pending) stage(d Deletion) (map[int][]int, error) {
	f := b.f
	if d.Kind != KindClass && (d.Client < 0 || d.Client >= len(f.clients)) {
		return nil, fmt.Errorf("unlearn: client %d out of range [0,%d)", d.Client, len(f.clients))
	}
	switch d.Kind {
	case KindSample:
		rows, err := b.check(d.Client, d.Rows)
		if err != nil {
			return nil, err
		}
		b.take(d.Client, rows)
		return map[int][]int{d.Client: rows}, nil
	case KindClass:
		if classes := f.parts[0].Classes; d.Class < 0 || d.Class >= classes {
			return nil, fmt.Errorf("unlearn: class %d out of range [0,%d)", d.Class, classes)
		}
		got := map[int][]int{}
		for i, p := range f.parts {
			rows := slices.DeleteFunc(slices.Clone(b.rows(i)), func(r int) bool { return p.Y[r] != d.Class })
			if len(rows) == 0 {
				continue
			}
			if _, err := b.check(i, rows); err != nil {
				return nil, fmt.Errorf("unlearn: class %d: %w", d.Class, err)
			}
			got[i] = rows
		}
		if len(got) == 0 {
			return nil, fmt.Errorf("unlearn: no remaining samples of class %d", d.Class)
		}
		for i, rows := range got {
			b.take(i, rows)
		}
		return got, nil
	case KindClient:
		if err := f.checkMembership(); err != nil {
			return nil, err
		}
		if slices.Contains(b.leaving, d.Client) {
			return nil, fmt.Errorf("unlearn: client %d is already leaving in this batch", d.Client)
		}
		if len(f.clients)-len(b.leaving) == 1 {
			return nil, fmt.Errorf("unlearn: cannot remove the last client")
		}
		b.leaving = append(b.leaving, d.Client)
		return map[int][]int{d.Client: b.rows(d.Client)}, nil
	}
	return nil, fmt.Errorf("unlearn: unknown deletion kind %q", d.Kind)
}

// check is the one check of rows client i is asked to forget: in range,
// not removed before, listed once, and at least one row left. It returns
// the rows in ascending order.
func (b *pending) check(i int, rows []int) ([]int, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("unlearn: client %d: empty deletion request", i)
	}
	n, rem := b.f.parts[i].Len(), b.rows(i)
	seen := make(map[int]bool, len(rows))
	for _, r := range rows {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("unlearn: client %d: row %d out of range [0,%d)", i, r, n)
		}
		if _, ok := slices.BinarySearch(rem, r); !ok {
			return nil, fmt.Errorf("unlearn: client %d: row %d already removed", i, r)
		}
		if seen[r] {
			// Df would hold the row twice and the forget steps weight it double.
			return nil, fmt.Errorf("unlearn: client %d: row %d listed twice in one request", i, r)
		}
		seen[r] = true
	}
	if len(rows) == len(rem) {
		// A client with no rows fails every later round and is dropped with
		// its deletion still pending; leaving is a membership change.
		return nil, fmt.Errorf("unlearn: client %d: request removes all %d remaining rows; use RemoveClient(%d, true) to forget a whole client",
			i, len(rows), i)
	}
	rows = slices.Clone(rows)
	slices.Sort(rows)
	return rows, nil
}

// take stages client i forgetting rows, which check accepted.
func (b *pending) take(i int, rows []int) {
	b.remaining[i] = slices.DeleteFunc(slices.Clone(b.rows(i)), func(r int) bool {
		_, gone := slices.BinarySearch(rows, r)
		return gone
	})
	b.forget[i] = append(b.forget[i], rows...)
}
