package unlearn

import (
	"fmt"

	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/fed"
	"goldfish/internal/model"
)

// Goldfish is the paper's unlearning procedure (Algorithm 1) as a Strategy:
// each participant is a core.Client running the composite-loss local
// procedure, and a deletion request makes the target client unlearn with
// knowledge distillation, every other client rebuild by distillation, and
// the global model reinitialize before the next round.
type Goldfish struct {
	cfg     core.Config
	clients []*core.Client
	nextID  int
	reseed  int64
}

var (
	_ Strategy       = (*Goldfish)(nil)
	_ ClientAccessor = (*Goldfish)(nil)
	_ Membership     = (*Goldfish)(nil)
)

// Name implements Strategy.
func (g *Goldfish) Name() string { return "goldfish" }

// Setup implements Strategy.
func (g *Goldfish) Setup(env Env) ([]fed.LocalTrainer, error) {
	g.cfg = env.Client
	g.reseed = env.Client.Model.Seed
	g.clients = make([]*core.Client, len(env.Parts))
	trainers := make([]fed.LocalTrainer, len(env.Parts))
	for i, p := range env.Parts {
		c, err := core.NewClient(i, env.Client, p)
		if err != nil {
			return nil, err
		}
		g.clients[i] = c
		trainers[i] = c
	}
	g.nextID = len(g.clients)
	return trainers, nil
}

// reinitVector implements Algorithm 1 line 12: a freshly initialized global
// model, so the student starts the unlearning round without knowledge of
// the forget set.
func (g *Goldfish) reinitVector() ([]float64, error) {
	g.reseed += 7919
	mcfg := g.cfg.Model
	mcfg.Seed = g.reseed
	fresh, err := model.Build(mcfg)
	if err != nil {
		return nil, fmt.Errorf("unlearn: reinitializing global model: %w", err)
	}
	return fresh.StateVector(), nil
}

// Forget implements Strategy (Algorithm 1 lines 8–17): the target client
// unlearns with the Goldfish procedure, all other clients rebuild by
// distillation, and the global model is reinitialized before the next
// round.
func (g *Goldfish) Forget(clientID int, rows []int, _ []float64) ([]float64, error) {
	if clientID < 0 || clientID >= len(g.clients) {
		return nil, fmt.Errorf("unlearn: client %d out of range [0,%d)", clientID, len(g.clients))
	}
	if err := g.clients[clientID].RequestDeletion(rows); err != nil {
		return nil, err
	}
	for i, c := range g.clients {
		if i != clientID {
			c.MarkRetrain()
		}
	}
	return g.reinitVector()
}

// Client implements ClientAccessor.
func (g *Goldfish) Client(i int) *core.Client {
	if i < 0 || i >= len(g.clients) {
		return nil
	}
	return g.clients[i]
}

// AddTrainer implements Membership: the new participant joins from the next
// round onward with an ID unique across the federation's lifetime.
func (g *Goldfish) AddTrainer(ds *data.Dataset) (fed.LocalTrainer, int, error) {
	id := g.nextID
	c, err := core.NewClient(id, g.cfg, ds)
	if err != nil {
		return nil, 0, err
	}
	g.clients = append(g.clients, c)
	g.nextID++
	return c, id, nil
}

// RemoveTrainer implements Membership. When unlearnDeparted is true the
// removal follows Algorithm 1's flow — the global model is reinitialized
// and every remaining client rebuilds by distillation — so the departed
// client's contribution is actively forgotten rather than merely no longer
// aggregated.
func (g *Goldfish) RemoveTrainer(i int, unlearnDeparted bool) ([]float64, error) {
	if i < 0 || i >= len(g.clients) {
		return nil, fmt.Errorf("unlearn: client %d out of range [0,%d)", i, len(g.clients))
	}
	if len(g.clients) == 1 {
		return nil, fmt.Errorf("unlearn: cannot remove the last client")
	}
	g.clients = append(g.clients[:i], g.clients[i+1:]...)
	if !unlearnDeparted {
		return nil, nil
	}
	for _, c := range g.clients {
		c.MarkRetrain()
	}
	return g.reinitVector()
}
