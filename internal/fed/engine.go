package fed

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"goldfish/internal/obs"
)

// This file is the single federated round engine. One round — client
// sampling, straggler timeout, update collection, scoring, aggregation,
// round hook — is implemented exactly once here; the unlearning Federation
// (in-process, over a LocalTransport) and the TCP Server both drive an Engine
// and only differ in their Transport.

// LocalTrainer is the client-side training logic plugged into the federated
// runtime — the Goldfish local procedure, a baseline, or plain local SGD.
type LocalTrainer interface {
	// TrainRound performs one round of local training starting from the
	// given global parameters and returns the client's update. The global
	// slice must not be retained or mutated.
	TrainRound(ctx context.Context, round int, global []float64) (ModelUpdate, error)
}

// Scorer measures the quality of an uploaded parameter vector on data the
// server holds (the paper evaluates each client's MSE on the central test
// set, Eq. 12). Lower is better.
//
// The round engine scores the updates of a round concurrently (they are
// independent), on fanOut's bounded set of goroutines, so implementations
// must be safe for concurrent Score calls — evaluate on per-call model
// replicas (e.g. a sync.Pool of cloned networks) rather than one shared
// mutable network.
type Scorer interface {
	Score(params []float64) (float64, error)
}

// ScorerFunc adapts a function to the Scorer interface.
type ScorerFunc func(params []float64) (float64, error)

// Score implements Scorer.
func (f ScorerFunc) Score(params []float64) (float64, error) { return f(params) }

// RoundInfo is passed to the engine's per-round callback.
type RoundInfo struct {
	// Round is the completed round index.
	Round int
	// Global is a copy of the aggregated parameter vector after the round.
	Global []float64
	// Updates are the client updates that went into the aggregate.
	Updates []ModelUpdate
	// Dropped lists the transport indices (RoundResult.Index) of sampled
	// participants whose training failed this round or whose update was
	// invalid: sized unlike the global model, or holding a non-finite value.
	Dropped []int
}

// RoundResult is one participant's outcome for a round, as reported by a
// Transport.
type RoundResult struct {
	// Index is the participant's transport index.
	Index int
	// Update is the participant's upload (valid when Err is nil).
	Update ModelUpdate
	// Err is the participant's failure for this round, if any.
	Err error
}

// Transport dispatches one round of local training to participants. The
// in-process LocalTransport fans out to a bounded set of goroutines; the TCP
// server's transport speaks the wire protocol. Implementations must treat
// the global slice as read-only.
type Transport interface {
	// NumClients returns the current number of participants.
	NumClients() int
	// ExecuteRound sends the global parameters to the listed participants
	// and collects their updates, honouring ctx (and its deadline, when
	// set) as the straggler bound. It returns one result per participant.
	ExecuteRound(ctx context.Context, round int, participants []int, global []float64) []RoundResult
}

// EngineConfig configures the shared round engine.
type EngineConfig struct {
	// Aggregator combines updates; defaults to FedAvg.
	Aggregator Aggregator
	// Scorer, when set, fills each update's MSE before aggregation
	// (the paper's Eq. 12 server-side quality probe).
	Scorer Scorer
	// MinClients is the minimum number of successful updates per round;
	// fewer aborts the round. Defaults to 1 and is clamped per round to the
	// number of sampled participants.
	MinClients int
	// ClientFraction, when in (0,1), trains only a random subset of
	// clients each round (standard federated client sampling, McMahan et
	// al.); 0 or 1 trains everyone. At least one client is always sampled.
	ClientFraction float64
	// RoundTimeout bounds one round of local training; stragglers whose
	// context expires are dropped for the round like crashed clients.
	// 0 disables the bound.
	RoundTimeout time.Duration
	// SampleSeed drives the client-sampling randomness.
	SampleSeed int64
	// OnRound, when set, is invoked after every aggregation. The RoundInfo
	// carries a defensive copy of the global vector, so callbacks may
	// retain or mutate it freely.
	OnRound func(RoundInfo)
	// BeforeRound, when set, runs at the start of every round, before client
	// sampling — the round boundary where batched deletion requests fold
	// into the model (see internal/serve). It may mutate the engine (e.g.
	// SetGlobal, membership changes through the owning layer); a returned
	// error aborts the run.
	BeforeRound func(ctx context.Context, round int) error
}

// Engine runs federation rounds over a Transport: every round it samples
// participants, fans the global model out, gathers updates, drops failures
// (crash-stop model) and invalid updates, scores, aggregates and fires the
// round hook. The run aborts only when fewer than MinClients updates
// arrive. The round counter is monotonic across Run calls. An Engine is not
// safe for concurrent use.
type Engine struct {
	cfg     EngineConfig
	trans   Transport
	global  []float64
	round   int
	sampler *rand.Rand

	// sampleBuf backs the participant slice returned by sample; it is
	// overwritten every round, which is safe because participants are only
	// read during their own round.
	sampleBuf []int
}

// NewEngine validates the configuration and initial parameters.
func NewEngine(cfg EngineConfig, initial []float64, trans Transport) (*Engine, error) {
	if trans == nil {
		return nil, fmt.Errorf("fed: nil transport")
	}
	if len(initial) == 0 {
		return nil, fmt.Errorf("fed: empty initial parameters")
	}
	if cfg.Aggregator == nil {
		cfg.Aggregator = FedAvg{}
	}
	if cfg.MinClients <= 0 {
		cfg.MinClients = 1
	}
	if cfg.ClientFraction < 0 || cfg.ClientFraction > 1 {
		return nil, fmt.Errorf("fed: ClientFraction %g out of [0,1]", cfg.ClientFraction)
	}
	return &Engine{
		cfg:     cfg,
		trans:   trans,
		global:  append([]float64(nil), initial...),
		sampler: rand.New(rand.NewSource(cfg.SampleSeed + 1)),
	}, nil
}

// Global returns a copy of the current global parameters.
func (e *Engine) Global() []float64 { return append([]float64(nil), e.global...) }

// SetGlobal replaces the global parameters (the deletion lifecycle
// reinitializes the model between rounds through this).
func (e *Engine) SetGlobal(g []float64) { e.global = append([]float64(nil), g...) }

// Round returns the number of completed rounds.
func (e *Engine) Round() int { return e.round }

// SetBeforeRound installs (or replaces) the round-boundary hook after
// construction. Layers built on top of the engine (the unlearning
// federation's deletion service) are created after the engine exists, so the
// hook must be attachable late. Not safe to call while a Run is in flight.
func (e *Engine) SetBeforeRound(fn func(ctx context.Context, round int) error) {
	e.cfg.BeforeRound = fn
}

// Run executes n rounds. It honours ctx cancellation between and during
// rounds.
func (e *Engine) Run(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("fed: cancelled before round %d: %w", e.round, err)
		}
		if err := e.RunRound(ctx); err != nil {
			return err
		}
	}
	return nil
}

// sample returns the participant indices for a round. The returned slice
// aliases the engine's reusable buffer and is valid until the next sample.
func (e *Engine) sample() []int {
	n := e.trans.NumClients()
	if cap(e.sampleBuf) < n {
		e.sampleBuf = make([]int, n)
	}
	all := e.sampleBuf[:n]
	for i := range all {
		all[i] = i
	}
	f := e.cfg.ClientFraction
	if f == 0 || f == 1 {
		return all
	}
	// Round to the nearest count (McMahan et al. sample max(round(n·f), 1)
	// clients); truncation would systematically under-sample whenever the
	// product lands just below an integer (10 clients at fraction 0.3 is
	// 2.999…, which must mean 3 clients, not 2).
	k := int(math.Round(float64(n) * f))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	e.sampler.Shuffle(n, func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:k]
}

// RunRound executes one federation round. Phase timings (sample → train →
// score → aggregate) are reported through the context's obs.Observer as
// fed/* spans and fed.phase_us.* counters; with no observer attached every
// obs call is a nil-receiver no-op.
func (e *Engine) RunRound(ctx context.Context) (err error) {
	o := obs.FromContext(ctx)
	span := o.StartSpan("fed/round", obs.Int("round", e.round))
	t0 := o.Elapsed()
	defer func() {
		o.Histogram("fed.round_ms", obs.MillisBuckets).Observe(float64((o.Elapsed() - t0).Microseconds()) / 1e3)
		if err != nil {
			o.Counter("fed.round_errors").Inc()
		} else {
			o.Counter("fed.rounds").Inc()
		}
		span.End()
	}()

	if e.cfg.BeforeRound != nil {
		if herr := e.cfg.BeforeRound(ctx, e.round); herr != nil {
			return fmt.Errorf("fed: round %d: before-round hook: %w", e.round, herr)
		}
	}

	sampleSpan := span.Child("fed/sample")
	phase := o.Elapsed()
	participants := e.sample()
	o.Counter("fed.phase_us.sample").Add((o.Elapsed() - phase).Microseconds())
	sampleSpan.End()
	if len(participants) == 0 {
		return fmt.Errorf("fed: round %d: no participants", e.round)
	}
	roundCtx := ctx
	if e.cfg.RoundTimeout > 0 {
		var cancel context.CancelFunc
		roundCtx, cancel = context.WithTimeout(ctx, e.cfg.RoundTimeout)
		defer cancel()
	}

	trainSpan := span.Child("fed/train", obs.Int("participants", len(participants)))
	phase = o.Elapsed()
	results := e.trans.ExecuteRound(roundCtx, e.round, participants, e.global)
	o.Counter("fed.phase_us.train").Add((o.Elapsed() - phase).Microseconds())
	trainSpan.End()

	updates := make([]ModelUpdate, 0, len(results))
	var dropped []int
	invalid := 0
	for _, r := range results {
		switch {
		case r.Err != nil:
			dropped = append(dropped, r.Index)
		case !validUpdate(r.Update.Params, len(e.global)):
			invalid++
			dropped = append(dropped, r.Index)
		default:
			updates = append(updates, r.Update)
		}
	}
	o.Counter("fed.updates").Add(int64(len(updates)))
	o.Counter("fed.dropped").Add(int64(len(dropped)))
	o.Counter("fed.dropped_invalid").Add(int64(invalid))
	minOK := e.cfg.MinClients
	if minOK > len(participants) {
		minOK = len(participants)
	}
	if len(updates) < minOK {
		err = fmt.Errorf("fed: round %d: only %d/%d sampled clients succeeded (min %d)",
			e.round, len(updates), len(participants), minOK)
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The caller cancelled the round (an expired RoundTimeout leaves
			// ctx alone): wrap the cause so an interrupt reads as one.
			return fmt.Errorf("%w: %w", err, ctxErr)
		}
		return err
	}

	if e.cfg.Scorer != nil {
		scoreSpan := span.Child("fed/score", obs.Int("updates", len(updates)))
		phase = o.Elapsed()
		err = e.scoreUpdates(updates)
		o.Counter("fed.phase_us.score").Add((o.Elapsed() - phase).Microseconds())
		scoreSpan.End()
		if err != nil {
			return err
		}
	}

	aggSpan := span.Child("fed/aggregate", obs.Int("updates", len(updates)))
	phase = o.Elapsed()
	global, aggErr := e.cfg.Aggregator.Aggregate(updates)
	o.Counter("fed.phase_us.aggregate").Add((o.Elapsed() - phase).Microseconds())
	aggSpan.End()
	if aggErr != nil {
		return fmt.Errorf("fed: round %d: %w", e.round, aggErr)
	}
	e.global = global
	e.round++

	if e.cfg.OnRound != nil {
		e.cfg.OnRound(RoundInfo{
			Round:   e.round - 1,
			Global:  append([]float64(nil), global...),
			Updates: updates,
			Dropped: dropped,
		})
	}
	return nil
}

// validUpdate reports whether an uploaded parameter vector may enter the
// aggregate: it has the global model's length and only finite values.
func validUpdate(params []float64, size int) bool {
	if len(params) != size {
		return false
	}
	for _, v := range params {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// scoreUpdates fills each update's MSE via the configured Scorer. Client
// updates are independent, so the server-side quality probe (Eq. 12) scores
// them on fanOut's goroutines; Scorer implementations must be safe for
// concurrent use (see the Scorer contract).
func (e *Engine) scoreUpdates(updates []ModelUpdate) error {
	scoreErrs := make([]error, len(updates))
	fanOut(len(updates), func(i int) {
		updates[i].MSE, scoreErrs[i] = e.cfg.Scorer.Score(updates[i].Params)
	})
	for i, err := range scoreErrs {
		if err != nil {
			return fmt.Errorf("fed: round %d: scoring client %d: %w", e.round, updates[i].ClientID, err)
		}
	}
	return nil
}

// fanOut calls fn(i) once for every i in [0, n) and returns when every call
// has. It runs workers(n) goroutines, each taking the next i from a shared
// counter, so at most that many calls run at once.
func fanOut(n int, fn func(i int)) {
	w := workers(n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for range w {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// workers is how many goroutines fanOut runs for n jobs: the smallest W ≥
// min(GOMAXPROCS, n) whose last wave, n mod W jobs, is empty or still has a
// job for every CPU. One goroutine per CPU would leave CPUs idle in the last
// wave (5 jobs on 2 CPUs end with one job alone), and one per job holds
// every job's working set at once; so 5 jobs on 2 CPUs run on 3
// goroutines and 64 on 2.
func workers(n int) int {
	if n <= 0 {
		return 0
	}
	p := runtime.GOMAXPROCS(0)
	w := min(p, n)
	for n%w != 0 && n%w < p {
		w++
	}
	return w
}

// LocalTransport runs participants fully in-process: ExecuteRound trains
// the sampled trainers on fanOut's bounded set of goroutines, so a round
// trains at most workers(n) of its n trainers at once. The trainer set may
// change between rounds (dynamic membership) but not during one.
type LocalTransport struct {
	trainers []LocalTrainer
}

var _ Transport = (*LocalTransport)(nil)

// NewLocalTransport wraps the given trainers.
func NewLocalTransport(trainers []LocalTrainer) *LocalTransport {
	return &LocalTransport{trainers: append([]LocalTrainer(nil), trainers...)}
}

// NumClients implements Transport.
func (t *LocalTransport) NumClients() int { return len(t.trainers) }

// Append adds a trainer (a client joining between rounds).
func (t *LocalTransport) Append(tr LocalTrainer) { t.trainers = append(t.trainers, tr) }

// Remove deletes trainer i (a client leaving between rounds).
func (t *LocalTransport) Remove(i int) error {
	if i < 0 || i >= len(t.trainers) {
		return fmt.Errorf("fed: trainer %d out of range [0,%d)", i, len(t.trainers))
	}
	t.trainers = append(t.trainers[:i], t.trainers[i+1:]...)
	return nil
}

// ExecuteRound implements Transport. Each sampled trainer's local training
// is traced as a fed/client_train span through the context's observer.
// Results are positional. A trainer still queued when ctx ends is not
// called: its result is ctx.Err().
func (t *LocalTransport) ExecuteRound(ctx context.Context, round int, participants []int, global []float64) []RoundResult {
	o := obs.FromContext(ctx)
	results := make([]RoundResult, len(participants))
	fanOut(len(participants), func(k int) {
		idx := participants[k]
		if err := ctx.Err(); err != nil {
			results[k] = RoundResult{Index: idx, Err: err}
			return
		}
		sp := o.StartSpan("fed/client_train", obs.Int("round", round), obs.Int("client", idx))
		// Each trainer receives its own copy of the global vector: per-trainer
		// isolation is the Transport contract.
		g := append([]float64(nil), global...)
		u, err := t.trainers[idx].TrainRound(ctx, round, g)
		sp.End()
		results[k] = RoundResult{Index: idx, Update: u, Err: err}
	})
	return results
}
