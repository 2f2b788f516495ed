// Package unlearn turns federated unlearning methods into interchangeable
// strategies over one shared federated runtime. A Strategy builds the
// per-client trainers that the round engine (internal/fed) drives and
// decides what happens when a deletion request arrives; the Federation in
// this package owns the engine, the deletion lifecycle and dynamic
// membership. The paper's Goldfish procedure and its three baselines (B1
// retrain-from-scratch, B2 Fisher rapid retraining, B3 incompetent teacher)
// are core.Procedure values, each registered here under a stable name as one
// strategy type that runs its procedure on core.Client participants, so
// every entry point — the public API, the benchmark harness, the CLI tools —
// selects an unlearning method the same way.
package unlearn

import (
	"fmt"
	"sort"
	"sync"

	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/fed"
	"goldfish/internal/model"
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
	for name, p := range map[string]core.Procedure{
		"goldfish":            core.Goldfish,
		"retrain":             core.Retrain,
		"fisher":              core.Fisher,
		"incompetent-teacher": core.IncompetentTeacher,
	} {
		Register(name, func() Strategy { return &procStrategy{name: name, proc: p} })
	}
}

// procStrategy runs one core.Procedure on every participant: each is a
// core.Client, a deletion is the owning client's ForgetAt plus MarkRetrain
// on every other one, and a procedure with a ReinitSeed restarts from a
// freshly initialized global model (Algorithm 1 line 12 for Goldfish, the
// from-scratch restart of B1/B2).
type procStrategy struct {
	name    string
	proc    core.Procedure
	cfg     core.Config
	clients []*core.Client
	nextID  int
	reinits int64
}

var (
	_ Strategy   = (*procStrategy)(nil)
	_ Membership = (*procStrategy)(nil)
)

// Name implements Strategy.
func (s *procStrategy) Name() string { return s.name }

// Setup implements Strategy.
func (s *procStrategy) Setup(env Env) ([]fed.LocalTrainer, error) {
	s.cfg = env.Client
	s.clients = make([]*core.Client, len(env.Parts))
	trainers := make([]fed.LocalTrainer, len(env.Parts))
	for i, p := range env.Parts {
		c, err := s.proc.NewClient(i, env.Client, p)
		if err != nil {
			return nil, err
		}
		s.clients[i] = c
		trainers[i] = c
	}
	s.nextID = len(s.clients)
	return trainers, nil
}

// Forget implements Strategy: the owning client forgets the rows with the
// current global model at hand (B3 freezes it as its teacher), every other
// client reacts as its procedure says, and the global model is
// reinitialized when the procedure asks for it.
func (s *procStrategy) Forget(clientID int, rows []int, global []float64) ([]float64, error) {
	if clientID < 0 || clientID >= len(s.clients) {
		return nil, fmt.Errorf("unlearn: client %d out of range [0,%d)", clientID, len(s.clients))
	}
	if err := core.ForgetAt(s.clients[clientID], rows, global); err != nil {
		return nil, err
	}
	for i, c := range s.clients {
		if i != clientID {
			c.MarkRetrain()
		}
	}
	return s.reinit()
}

// reinit builds the next freshly initialized global model, or returns nil
// when the procedure keeps the current one.
func (s *procStrategy) reinit() ([]float64, error) {
	if s.proc.ReinitSeed == nil {
		return nil, nil
	}
	s.reinits++
	mcfg := s.cfg.Model
	mcfg.Seed = s.proc.ReinitSeed(s.cfg, s.reinits)
	fresh, err := model.Build(mcfg)
	if err != nil {
		return nil, fmt.Errorf("unlearn: reinitializing global model: %w", err)
	}
	return fresh.StateVector(), nil
}

// checkMembership rejects membership changes under a procedure that keeps
// the global model on a deletion (B3): a departed client's rows leave with
// it, so only a fresh global model forgets them.
func (s *procStrategy) checkMembership() error {
	if s.proc.ReinitSeed == nil {
		return fmt.Errorf("unlearn: strategy %s does not support dynamic membership", s.name)
	}
	return nil
}

// AddTrainer implements Membership: the new participant joins from the next
// round onward with an ID unique across the federation's lifetime.
func (s *procStrategy) AddTrainer(ds *data.Dataset) (fed.LocalTrainer, int, error) {
	if err := s.checkMembership(); err != nil {
		return nil, 0, err
	}
	c, err := s.proc.NewClient(s.nextID, s.cfg, ds)
	if err != nil {
		return nil, 0, err
	}
	s.clients = append(s.clients, c)
	s.nextID++
	return c, c.ID(), nil
}

// RemoveTrainer implements Membership. With unlearnDeparted set the
// departure is a deletion of the client's whole dataset: every remaining
// client reacts as to any other deletion and training restarts from a
// fresh global model, so the departed client's contribution is actively
// forgotten rather than merely no longer aggregated.
func (s *procStrategy) RemoveTrainer(i int, unlearnDeparted bool) ([]float64, error) {
	if err := s.checkMembership(); err != nil {
		return nil, err
	}
	if i < 0 || i >= len(s.clients) {
		return nil, fmt.Errorf("unlearn: client %d out of range [0,%d)", i, len(s.clients))
	}
	if len(s.clients) == 1 {
		return nil, fmt.Errorf("unlearn: cannot remove the last client")
	}
	s.clients = append(s.clients[:i], s.clients[i+1:]...)
	if !unlearnDeparted {
		return nil, nil
	}
	for _, c := range s.clients {
		c.MarkRetrain()
	}
	return s.reinit()
}
