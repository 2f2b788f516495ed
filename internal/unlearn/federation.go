package unlearn

import (
	"context"
	"fmt"
	"slices"
	"time"

	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/fed"
	"goldfish/internal/metrics"
	"goldfish/internal/model"
	"goldfish/internal/nn"
	"goldfish/internal/obs"
)

// Config configures a Federation: the shared client setup, the unlearning
// strategy, and the round-engine knobs.
type Config struct {
	// Client is the configuration shared by all clients.
	Client core.Config
	// Strategy names the unlearning strategy (see Procedure); "" selects
	// the paper's Goldfish procedure.
	Strategy string
	// Aggregator combines uploads; nil selects FedAvg. Use
	// fed.AdaptiveWeight together with ServerTest for the paper's
	// extension-module aggregation.
	Aggregator fed.Aggregator
	// ServerTest, when set, is the central test set used to score uploaded
	// models (MSE of Eq. 12) before adaptive-weight aggregation.
	ServerTest *data.Dataset
	// MinClients is the minimum number of successful client updates per
	// round; fewer aborts the round. Defaults to 1.
	MinClients int
	// ClientFraction, when in (0,1), trains only a random subset of
	// clients each round; 0 or 1 trains everyone.
	ClientFraction float64
	// RoundTimeout bounds one round of local training; stragglers are
	// dropped for the round. 0 disables the bound.
	RoundTimeout time.Duration
	// SampleSeed drives the client-sampling randomness.
	SampleSeed int64
}

// RoundStats summarizes one completed federation round for callbacks.
type RoundStats struct {
	// Round is the completed round index (monotonic across Run calls).
	Round int
	// Global is a copy of the aggregated state vector; callbacks may
	// retain or mutate it freely.
	Global []float64
	// Updates are the client uploads aggregated this round.
	Updates []fed.ModelUpdate
	// Dropped lists the transport positions (the i of Partition(i), which
	// shift on membership changes — not lifetime client IDs) of sampled
	// clients whose local training failed this round.
	Dropped []int
	// UnlearningRound is true when this round processed deletion requests.
	UnlearningRound bool
}

// Federation orchestrates a federated-unlearning run: core.Client
// participants training under one core.Procedure over the shared round
// engine, plus the deletion lifecycle and dynamic membership. It is not safe
// for concurrent use; drive it from one goroutine.
type Federation struct {
	cfg  Config
	name string // the strategy name proc is known under
	proc core.Procedure

	// clients are the participants by current position, the trainers the
	// in-process transport local runs, and pool lends them the networks
	// they train on. nextID is the next lifetime-unique client ID; reinits
	// counts the fresh global models deletion batches have started from.
	clients []*core.Client
	pool    *core.Pool
	nextID  int
	reinits int64

	local          *fed.LocalTransport
	engine         *fed.Engine
	evalNet        *nn.Network
	onRound        func(RoundStats)
	pendingUnlearn bool

	// obs is the observer captured from the most recent Run's context, kept
	// so deletion requests arriving BETWEEN runs are still observed; nil is
	// the no-op default. forgetMarks records when each pending deletion
	// request arrived; marks settle into per-strategy rounds-to-forget /
	// time-to-forget histograms when the recovery rounds complete.
	obs         *obs.Observer
	forgetMarks []forgetMark

	// parts holds each participant's ORIGINAL local dataset (by current
	// position; shifted on Add/RemoveClient). Every layer addresses rows
	// against the original dataset; the client itself keeps the one record
	// of what is gone (core.RemainingRows).
	parts []*data.Dataset
}

// NewFederation creates a federation with one participant per dataset
// partition, running the configured unlearning strategy.
func NewFederation(cfg Config, parts []*data.Dataset) (*Federation, error) {
	name := cfg.Strategy
	if name == "" {
		name = "goldfish"
	}
	proc, err := Procedure(name)
	if err != nil {
		return nil, err
	}
	pool, err := core.NewPool(proc, cfg.Client)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("unlearn: no client partitions")
	}
	if cfg.MinClients > len(parts) {
		return nil, fmt.Errorf("unlearn: MinClients %d exceeds client count %d", cfg.MinClients, len(parts))
	}
	clients := make([]*core.Client, len(parts))
	trainers := make([]fed.LocalTrainer, len(parts))
	for i, p := range parts {
		if clients[i], err = pool.NewClient(i, p); err != nil {
			return nil, err
		}
		trainers[i] = clients[i]
	}
	initNet, err := model.Build(cfg.Client.Model)
	if err != nil {
		return nil, err
	}
	evalNet, err := model.Build(cfg.Client.Model)
	if err != nil {
		return nil, err
	}

	f := &Federation{
		cfg:     cfg,
		name:    name,
		proc:    proc,
		clients: clients,
		pool:    pool,
		nextID:  len(clients),
		local:   fed.NewLocalTransport(trainers),
		evalNet: evalNet,
		parts:   append([]*data.Dataset(nil), parts...),
	}

	var scorer fed.Scorer
	if _, adaptive := cfg.Aggregator.(fed.AdaptiveWeight); adaptive && cfg.ServerTest != nil {
		// Pooled replicas: the engine scores a round's updates concurrently.
		scorer = fed.ScorerFunc(metrics.NewMSEScorer(evalNet, cfg.ServerTest, cfg.Client.BatchSize))
	}

	engine, err := fed.NewEngine(fed.EngineConfig{
		Aggregator:     cfg.Aggregator,
		Scorer:         scorer,
		MinClients:     cfg.MinClients,
		ClientFraction: cfg.ClientFraction,
		RoundTimeout:   cfg.RoundTimeout,
		SampleSeed:     cfg.SampleSeed,
		OnRound: func(ri fed.RoundInfo) {
			unlearning := f.pendingUnlearn
			f.pendingUnlearn = false
			if f.onRound != nil {
				f.onRound(RoundStats{
					Round:           ri.Round,
					Global:          ri.Global,
					Updates:         ri.Updates,
					Dropped:         ri.Dropped,
					UnlearningRound: unlearning,
				})
			}
		},
	}, initNet.StateVector(), f.local)
	if err != nil {
		return nil, err
	}
	f.engine = engine
	return f, nil
}

// StrategyName returns the name of the strategy the federation runs.
func (f *Federation) StrategyName() string { return f.name }

// NumClients returns the number of participants.
func (f *Federation) NumClients() int { return len(f.clients) }

// Client returns participant i, or nil when i is out of range.
func (f *Federation) Client(i int) *core.Client {
	if i < 0 || i >= len(f.clients) {
		return nil
	}
	return f.clients[i]
}

// Round returns the number of completed rounds.
func (f *Federation) Round() int { return f.engine.Round() }

// SetBeforeRound installs (or replaces) the engine's round-boundary hook:
// it runs at the start of every round, before client sampling, and may
// submit deletion requests or change membership — the attachment point for
// the batching deletion service (internal/serve). Not safe to call while a
// Run is in flight.
func (f *Federation) SetBeforeRound(fn func(ctx context.Context, round int) error) {
	f.engine.SetBeforeRound(fn)
}

// Global returns a copy of the current global state vector.
func (f *Federation) Global() []float64 { return f.engine.Global() }

// GlobalNet returns a fresh network loaded with the current global state.
func (f *Federation) GlobalNet() (*nn.Network, error) {
	net, err := model.Build(f.cfg.Client.Model)
	if err != nil {
		return nil, err
	}
	if err := net.SetStateVector(f.engine.Global()); err != nil {
		return nil, fmt.Errorf("unlearn: loading global state: %w", err)
	}
	return net, nil
}

// RequestDeletion submits a deletion request for rows of a client's local
// dataset: a one-deletion Apply. Rows index the client's ORIGINAL dataset
// whatever the strategy; out-of-range, already-removed and repeated rows,
// and a request that would leave the client with no rows, are rejected and
// nothing changes. The procedure decides how the request is honoured:
// Goldfish runs Algorithm 1 lines 8–17, the retrain baselines drop the rows
// and restart from scratch, the incompetent teacher distills the data away.
func (f *Federation) RequestDeletion(clientID int, rows []int) error {
	return f.Apply([]Deletion{{Kind: KindSample, Client: clientID, Rows: rows}})[0].Err
}

// forgetMark is one pending deletion request awaiting its recovery rounds:
// round is the engine round when the request arrived, at the observer-relative
// arrival time.
type forgetMark struct {
	round int
	at    time.Duration
}

// markForget records a pending deletion request for the forgetting-latency
// histograms. No-op without an observer (nothing would consume the mark).
func (f *Federation) markForget() {
	if f.obs == nil {
		return
	}
	f.forgetMarks = append(f.forgetMarks, forgetMark{round: f.engine.Round(), at: f.obs.Elapsed()})
}

// settleForgetMarks resolves every pending deletion request against the
// rounds completed so far: a request is considered forgotten once the run
// that followed it finished, so rounds-to-forget is the recovery-round count
// and time-to-forget the wall time from request to the end of that run. Both
// land in per-strategy histograms (the p50/p99 forgetting-latency SLO
// substrate) plus an unlearn/forgotten trace event each.
func (f *Federation) settleForgetMarks() {
	if f.obs == nil || len(f.forgetMarks) == 0 {
		return
	}
	name := f.name
	for _, m := range f.forgetMarks {
		rounds := f.engine.Round() - m.round
		ms := float64((f.obs.Elapsed() - m.at).Microseconds()) / 1e3
		f.obs.Histogram("unlearn.rounds_to_forget."+name, obs.RoundBuckets).Observe(float64(rounds))
		f.obs.Histogram("unlearn.time_to_forget_ms."+name, obs.MillisBuckets).Observe(ms)
		f.obs.Event("unlearn/forgotten",
			obs.Str("strategy", name), obs.Int("rounds", rounds), obs.F64("ms", ms))
	}
	f.forgetMarks = f.forgetMarks[:0]
}

// RemainingRows returns the not-yet-removed original row indices of
// participant clientID's dataset, in ascending order.
func (f *Federation) RemainingRows(clientID int) []int {
	if clientID < 0 || clientID >= len(f.clients) {
		return nil
	}
	return core.RemainingRows(f.clients[clientID])
}

// RemainingRowsOfClass returns the not-yet-removed original row indices of a
// participant's samples labelled class, in ascending order.
func (f *Federation) RemainingRowsOfClass(clientID, class int) []int {
	return slices.DeleteFunc(f.RemainingRows(clientID), func(r int) bool { return f.parts[clientID].Y[r] != class })
}

// RequestClassDeletion submits a class-level deletion, a one-deletion
// Apply: every remaining sample labelled class, across all participants, is
// removed. A participant holding nothing but that class rejects the whole
// request and the class stays everywhere. It returns the removed original
// row indices per participant position; at least one sample must remain to
// remove or an error is returned.
func (f *Federation) RequestClassDeletion(class int) (map[int][]int, error) {
	o := f.Apply([]Deletion{{Kind: KindClass, Class: class}})[0]
	return o.Rows, o.Err
}

// Partition returns participant i's ORIGINAL local dataset (deletions do not
// shrink it), or nil when i is out of range.
func (f *Federation) Partition(i int) *data.Dataset {
	if i < 0 || i >= len(f.parts) {
		return nil
	}
	return f.parts[i]
}

// checkMembership rejects membership changes under a procedure that keeps
// the global model on a deletion (B3): a departed client's rows leave with
// it, so only a fresh global model forgets them.
func (f *Federation) checkMembership() error {
	if f.proc.ReinitSeed == nil {
		return fmt.Errorf("unlearn: strategy %s does not support dynamic membership", f.name)
	}
	return nil
}

// AddClient registers a new participant holding the given local dataset and
// returns its client ID (unique across the federation's lifetime, even
// after removals). The client joins from the next round onward.
func (f *Federation) AddClient(ds *data.Dataset) (int, error) {
	if err := f.checkMembership(); err != nil {
		return 0, err
	}
	c, err := f.pool.NewClient(f.nextID, ds)
	if err != nil {
		return 0, err
	}
	f.nextID++
	f.clients = append(f.clients, c)
	f.local.Append(c)
	f.parts = append(f.parts, ds)
	return c.ID(), nil
}

// RemoveClient removes a participant from the federation. When unlearn is
// true the removal is a one-deletion Apply: every remaining client reacts
// as to any other deletion and training restarts from a fresh global model,
// so the departed client's contribution is actively forgotten rather than
// merely no longer aggregated.
func (f *Federation) RemoveClient(clientID int, unlearn bool) error {
	d := Deletion{Kind: KindClient, Client: clientID}
	if unlearn {
		return f.Apply([]Deletion{d})[0].Err
	}
	// A plain departure is checked as an unlearning one is: membership,
	// range, and never the last client.
	if _, err := (&pending{f: f, remaining: map[int][]int{}}).stage(d); err != nil {
		return err
	}
	f.drop(clientID)
	f.obs.Event("unlearn/client_removed", obs.Str("strategy", f.name), obs.Int("client", clientID), obs.Int("unlearn", 0))
	return nil
}

// drop removes the participant at position i, which is in range.
func (f *Federation) drop(i int) {
	_ = f.local.Remove(i) // local holds f.clients' trainers, so i is in range
	f.clients = slices.Delete(f.clients, i, i+1)
	f.parts = slices.Delete(f.parts, i, i+1)
}

// Run executes n federation rounds, invoking onRound (may be nil) after
// each. It honours ctx cancellation. When ctx carries an obs.Observer the
// federation keeps it (so deletion requests between runs are observed too)
// and, on success, settles pending deletion requests into the per-strategy
// forgetting-latency histograms.
func (f *Federation) Run(ctx context.Context, n int, onRound func(RoundStats)) error {
	if o := obs.FromContext(ctx); o != nil {
		f.obs = o
	}
	f.onRound = onRound
	defer func() { f.onRound = nil }()
	if err := f.engine.Run(ctx, n); err != nil {
		return err
	}
	f.settleForgetMarks()
	return nil
}

// TestAccuracy evaluates the current global model on a dataset.
func (f *Federation) TestAccuracy(test *data.Dataset) (float64, error) {
	if err := f.evalNet.SetStateVector(f.engine.Global()); err != nil {
		return 0, fmt.Errorf("unlearn: loading global state: %w", err)
	}
	return metrics.Accuracy(f.evalNet, test, 0), nil
}
