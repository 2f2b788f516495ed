// Package unlearn turns federated unlearning methods into interchangeable
// strategies over one shared federated runtime. A Strategy builds the
// per-client trainers that the round engine (internal/fed) drives and
// decides what happens when a deletion request arrives; the Federation in
// this package owns the engine, the deletion lifecycle and dynamic
// membership. The paper's Goldfish procedure and its three baselines (B1
// retrain-from-scratch, B2 Fisher rapid retraining, B3 incompetent teacher)
// are all registered here under stable names, so every entry point — the
// public API, the benchmark harness, the CLI tools — selects an unlearning
// method the same way.
package unlearn

import (
	"fmt"
	"sort"
	"sync"

	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/fed"
)

// Env is the federation setup a Strategy builds its trainers from.
type Env struct {
	// Client is the configuration shared by all clients (model, loss,
	// optimizer, epochs, batch size, seed).
	Client core.Config
	// Parts are the per-client local datasets.
	Parts []*data.Dataset
}

// Strategy is a pluggable federated-unlearning method: it owns the
// per-client training logic and the reaction to deletion requests, while
// the shared round engine owns sampling, timeouts, aggregation and hooks.
type Strategy interface {
	// Name is the strategy's registry name.
	Name() string
	// Setup builds one fed.LocalTrainer per partition. It is called once,
	// before the first round.
	Setup(env Env) ([]fed.LocalTrainer, error)
	// Forget processes a deletion request for rows of a client's local
	// dataset. rows are indices into the client's ORIGINAL dataset (the
	// partition Setup received), already validated by the Federation — in
	// range, not removed by an earlier request, none repeated — and in
	// ascending order. global is the current global state vector; a non-nil
	// return value replaces the global model before the next round (e.g. the
	// Goldfish reinitialization of Algorithm 1 line 12), while nil keeps
	// the current one (e.g. B3 keeps the contaminated model as teacher). A
	// Forget that returns an error must leave the strategy unchanged: the
	// Federation records the rows as removed only on success.
	Forget(clientID int, rows []int, global []float64) ([]float64, error)
}

// ClientAccessor is implemented by strategies whose participants are
// Goldfish clients and can be inspected (active row counts).
type ClientAccessor interface {
	// Client returns participant i, or nil when i is out of range.
	Client(i int) *core.Client
}

// Membership is implemented by strategies that support clients joining and
// leaving between rounds (the paper's §V outlook).
type Membership interface {
	// AddTrainer registers a new participant over the given dataset and
	// returns its trainer and lifetime-unique client ID.
	AddTrainer(ds *data.Dataset) (fed.LocalTrainer, int, error)
	// RemoveTrainer removes participant i. When unlearnDeparted is true
	// the departure is treated as a deletion of the client's entire
	// dataset; a non-nil returned vector replaces the global model.
	RemoveTrainer(i int, unlearnDeparted bool) ([]float64, error)
}

// Factory creates a fresh, un-setup Strategy instance.
type Factory func() Strategy

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a strategy factory under name. Registering a name twice is a
// wiring bug, not a runtime condition, so it panics rather than silently
// replacing the earlier factory. The built-in names are "goldfish", "retrain"
// (B1), "fisher" (B2) and "incompetent-teacher" (B3).
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("unlearn: Register with empty name or nil factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("unlearn: Register called twice for strategy " + name)
	}
	registry[name] = f
}

// New returns a fresh instance of the named strategy.
func New(name string) (Strategy, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unlearn: unknown strategy %q (registered: %v)", name, Names())
	}
	return f(), nil
}

// Names lists the registered strategy names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("goldfish", func() Strategy { return &Goldfish{} })
	Register("retrain", func() Strategy { return &retrainStrategy{name: "retrain"} })
	Register("fisher", func() Strategy { return &retrainStrategy{name: "fisher", precond: true} })
	Register("incompetent-teacher", func() Strategy { return &teacherStrategy{} })
}
