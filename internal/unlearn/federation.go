package unlearn

import (
	"context"
	"fmt"
	"sort"
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
	// Unlearner is the unlearning strategy; nil selects the paper's
	// Goldfish procedure.
	Unlearner Strategy
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
	// Transport, when set, replaces the default in-process transport over
	// the strategy's trainers (advanced: e.g. a custom distribution
	// layer). Dynamic membership requires the default transport.
	Transport fed.Transport
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

// Federation orchestrates a federated-unlearning run: one pluggable
// Strategy over the shared round engine, plus the deletion lifecycle and
// dynamic membership. It is not safe for concurrent use; drive it from one
// goroutine.
type Federation struct {
	cfg            Config
	strategy       Strategy
	local          *fed.LocalTransport // nil when cfg.Transport is custom
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
	// position; shifted on Add/RemoveClient), and removed records which
	// original rows each participant has already deleted. Every layer
	// addresses rows against the original dataset; this is the one record of
	// what is gone.
	parts   []*data.Dataset
	removed []map[int]bool
}

// NewFederation creates a federation with one participant per dataset
// partition, running the configured unlearning strategy.
func NewFederation(cfg Config, parts []*data.Dataset) (*Federation, error) {
	if err := cfg.Client.Validate(); err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("unlearn: no client partitions")
	}
	if cfg.MinClients > len(parts) {
		return nil, fmt.Errorf("unlearn: MinClients %d exceeds client count %d", cfg.MinClients, len(parts))
	}
	if cfg.Unlearner == nil {
		cfg.Unlearner = &procStrategy{name: "goldfish", proc: core.Goldfish}
	}
	trainers, err := cfg.Unlearner.Setup(Env{Client: cfg.Client, Parts: parts})
	if err != nil {
		return nil, err
	}
	if len(trainers) != len(parts) {
		return nil, fmt.Errorf("unlearn: strategy %s built %d trainers for %d partitions",
			cfg.Unlearner.Name(), len(trainers), len(parts))
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
		cfg:      cfg,
		strategy: cfg.Unlearner,
		evalNet:  evalNet,
		parts:    append([]*data.Dataset(nil), parts...),
		removed:  make([]map[int]bool, len(parts)),
	}
	for i := range f.removed {
		f.removed[i] = map[int]bool{}
	}

	var scorer fed.Scorer
	if _, adaptive := cfg.Aggregator.(fed.AdaptiveWeight); adaptive && cfg.ServerTest != nil {
		// Pooled replicas: the engine scores a round's updates concurrently.
		scorer = fed.ScorerFunc(metrics.NewMSEScorer(evalNet, cfg.ServerTest, cfg.Client.BatchSize))
	}

	transport := cfg.Transport
	if transport == nil {
		f.local = fed.NewLocalTransport(trainers)
		transport = f.local
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
	}, initNet.StateVector(), transport)
	if err != nil {
		return nil, err
	}
	f.engine = engine
	return f, nil
}

// Strategy returns the active unlearning strategy.
func (f *Federation) Strategy() Strategy { return f.strategy }

// NumClients returns the number of participants.
func (f *Federation) NumClients() int {
	if f.local != nil {
		return f.local.NumClients()
	}
	return f.cfg.Transport.NumClients()
}

// Client returns participant i, or nil when i is out of range or the
// strategy is not a built-in one.
func (f *Federation) Client(i int) *core.Client {
	if s, ok := f.strategy.(*procStrategy); ok && i >= 0 && i < len(s.clients) {
		return s.clients[i]
	}
	return nil
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
// dataset. Rows index the client's ORIGINAL dataset whatever the strategy;
// out-of-range, already-removed and repeated rows, and a request that would
// leave the client with no rows, are rejected before anything is mutated,
// and the strategy receives the rows in ascending order. The strategy
// decides how the request is honoured: Goldfish runs Algorithm 1 lines
// 8–17, the retrain baselines drop the rows and restart from scratch, the
// incompetent teacher distills the data away.
func (f *Federation) RequestDeletion(clientID int, rows []int) error {
	rows, err := f.checkDeletion(clientID, rows)
	if err != nil {
		return err
	}
	return f.forget(clientID, rows)
}

// checkDeletion validates a deletion request without mutating anything and
// returns its rows in ascending order.
func (f *Federation) checkDeletion(clientID int, rows []int) ([]int, error) {
	if clientID < 0 || clientID >= len(f.parts) {
		return nil, fmt.Errorf("unlearn: client %d out of range [0,%d)", clientID, len(f.parts))
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("unlearn: client %d: empty deletion request", clientID)
	}
	part, rem := f.parts[clientID], f.removed[clientID]
	seen := make(map[int]bool, len(rows))
	for _, r := range rows {
		if r < 0 || r >= part.Len() {
			return nil, fmt.Errorf("unlearn: client %d: row %d out of range [0,%d)", clientID, r, part.Len())
		}
		if rem[r] {
			return nil, fmt.Errorf("unlearn: client %d: row %d already removed", clientID, r)
		}
		if seen[r] {
			// Df would hold the row twice and the forget steps weight it double.
			return nil, fmt.Errorf("unlearn: client %d: row %d listed twice in one request", clientID, r)
		}
		seen[r] = true
	}
	if len(rem)+len(rows) == part.Len() {
		// A client with no rows fails every later round and is dropped with
		// its deletion still pending; leaving is a membership change.
		return nil, fmt.Errorf("unlearn: client %d: request removes all %d remaining rows; use RemoveClient(%d, true) to forget a whole client",
			clientID, len(rows), clientID)
	}
	rows = append([]int(nil), rows...)
	sort.Ints(rows)
	return rows, nil
}

// forget applies a request checkDeletion accepted.
func (f *Federation) forget(clientID int, rows []int) error {
	f.obs.Event("unlearn/request",
		obs.Str("strategy", f.strategy.Name()), obs.Int("client", clientID), obs.Int("rows", len(rows)))
	sp := f.obs.StartSpan("unlearn/forget",
		obs.Str("strategy", f.strategy.Name()), obs.Int("client", clientID))
	next, err := f.strategy.Forget(clientID, rows, f.engine.Global())
	sp.End()
	if err != nil {
		return err
	}
	for _, r := range rows {
		f.removed[clientID][r] = true
	}
	if next != nil {
		f.engine.SetGlobal(next)
	}
	f.pendingUnlearn = true
	f.obs.Counter("unlearn.requests").Inc()
	f.markForget()
	return nil
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
	name := f.strategy.Name()
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
	if clientID < 0 || clientID >= len(f.parts) {
		return nil
	}
	rem := f.removed[clientID]
	out := make([]int, 0, f.parts[clientID].Len()-len(rem))
	for r := 0; r < f.parts[clientID].Len(); r++ {
		if !rem[r] {
			out = append(out, r)
		}
	}
	return out
}

// RemainingRowsOfClass returns the not-yet-removed original row indices of a
// participant's samples labelled class, in ascending order.
func (f *Federation) RemainingRowsOfClass(clientID, class int) []int {
	if clientID < 0 || clientID >= len(f.parts) {
		return nil
	}
	rem := f.removed[clientID]
	var out []int
	for _, r := range f.parts[clientID].RowsOfClass(class) {
		if !rem[r] {
			out = append(out, r)
		}
	}
	return out
}

// RequestClassDeletion submits a class-level deletion: every remaining
// sample labelled class, across all participants, is requested for removal
// (one Forget per affected participant, in participant order). Every
// participant's request is validated before the first is applied, so a
// rejection — a participant holding nothing but that class — leaves the
// class untouched everywhere. It returns the removed original row indices
// per participant position; at least one sample must remain to remove or an
// error is returned.
func (f *Federation) RequestClassDeletion(class int) (map[int][]int, error) {
	if len(f.parts) == 0 {
		return nil, fmt.Errorf("unlearn: no participants")
	}
	if class < 0 || class >= f.parts[0].Classes {
		return nil, fmt.Errorf("unlearn: class %d out of range [0,%d)", class, f.parts[0].Classes)
	}
	out := map[int][]int{}
	var affected []int
	for i := range f.parts {
		rows := f.RemainingRowsOfClass(i, class)
		if len(rows) == 0 {
			continue
		}
		rows, err := f.checkDeletion(i, rows)
		if err != nil {
			return nil, fmt.Errorf("unlearn: class %d: %w", class, err)
		}
		out[i] = rows
		affected = append(affected, i)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unlearn: no remaining samples of class %d", class)
	}
	for n, i := range affected {
		if err := f.forget(i, out[i]); err != nil {
			// The strategy refused a validated request: report what was applied.
			for _, j := range affected[n:] {
				delete(out, j)
			}
			return out, fmt.Errorf("unlearn: class %d on client %d: %w", class, i, err)
		}
	}
	return out, nil
}

// Partition returns participant i's ORIGINAL local dataset (deletions do not
// shrink it), or nil when i is out of range.
func (f *Federation) Partition(i int) *data.Dataset {
	if i < 0 || i >= len(f.parts) {
		return nil
	}
	return f.parts[i]
}

// AddClient registers a new participant holding the given local dataset and
// returns its client ID (unique across the federation's lifetime, even
// after removals). The client joins from the next round onward.
func (f *Federation) AddClient(ds *data.Dataset) (int, error) {
	m, ok := f.strategy.(Membership)
	if !ok {
		return 0, fmt.Errorf("unlearn: strategy %s does not support dynamic membership", f.strategy.Name())
	}
	if f.local == nil {
		return 0, fmt.Errorf("unlearn: dynamic membership requires the in-process transport")
	}
	tr, id, err := m.AddTrainer(ds)
	if err != nil {
		return 0, err
	}
	f.local.Append(tr)
	f.parts = append(f.parts, ds)
	f.removed = append(f.removed, map[int]bool{})
	return id, nil
}

// RemoveClient removes a participant from the federation. When unlearn is
// true the removal is treated as a deletion request for the client's entire
// remaining dataset, so its contribution is actively forgotten rather than
// merely no longer aggregated.
func (f *Federation) RemoveClient(clientID int, unlearn bool) error {
	m, ok := f.strategy.(Membership)
	if !ok {
		return fmt.Errorf("unlearn: strategy %s does not support dynamic membership", f.strategy.Name())
	}
	if f.local == nil {
		return fmt.Errorf("unlearn: dynamic membership requires the in-process transport")
	}
	next, err := m.RemoveTrainer(clientID, unlearn)
	if err != nil {
		return err
	}
	if rerr := f.local.Remove(clientID); rerr != nil {
		return rerr
	}
	if clientID >= 0 && clientID < len(f.parts) {
		f.parts = append(f.parts[:clientID], f.parts[clientID+1:]...)
		f.removed = append(f.removed[:clientID], f.removed[clientID+1:]...)
	}
	if next != nil {
		f.engine.SetGlobal(next)
	}
	f.obs.Event("unlearn/client_removed",
		obs.Str("strategy", f.strategy.Name()), obs.Int("client", clientID), obs.Int("unlearn", boolInt(unlearn)))
	if unlearn {
		f.pendingUnlearn = true
		f.obs.Counter("unlearn.requests").Inc()
		f.markForget()
	}
	return nil
}

// boolInt encodes a bool as a 0/1 trace attribute.
func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
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
