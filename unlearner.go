package goldfish

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"goldfish/internal/data"
	"goldfish/internal/unlearn"
)

// engineConfig collects the functional options before New resolves them.
type engineConfig struct {
	dataset    string
	scale      Scale
	arch       Arch
	preset     *Preset
	seed       int64
	clients    int
	parts      []*Dataset
	clientCfg  *Config
	unlearner  string
	agg        Aggregator
	serverTest *Dataset
	minClients int
	fraction   float64
	timeout    time.Duration
	sampleSeed int64
	hook       func(RoundStats)
}

// Option configures an Engine built by New.
type Option func(*engineConfig) error

// WithDataset selects one of the paper's dataset presets ("mnist",
// "fmnist", "cifar10", "cifar100") at the given experiment scale; the
// preset supplies the architecture, hyperparameters, default client count
// and round budget. Combine with WithSeed, WithArch, and optionally
// WithPartitions to train on custom splits of the preset's data.
func WithDataset(name string, scale Scale) Option {
	return func(c *engineConfig) error {
		if name == "" {
			return fmt.Errorf("goldfish: WithDataset: empty dataset name")
		}
		c.dataset, c.scale = name, scale
		return nil
	}
}

// WithPreset uses an already-resolved preset (see NewPreset), keeping its
// hyperparameters and dimensions.
func WithPreset(p Preset) Option {
	return func(c *engineConfig) error {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("goldfish: WithPreset: %w", err)
		}
		c.preset = &p
		return nil
	}
}

// WithArch overrides the preset's dataset→architecture pairing (e.g.
// ResNet-32 on CIFAR-10 as in Fig. 4d).
func WithArch(a Arch) Option {
	return func(c *engineConfig) error {
		c.arch = a
		return nil
	}
}

// WithSeed fixes the seed driving data generation, partitioning and model
// initialization. 0 (the default) selects seed 1.
func WithSeed(seed int64) Option {
	return func(c *engineConfig) error {
		c.seed = seed
		return nil
	}
}

// WithClients sets the number of federation participants when the engine
// partitions the preset's data itself (default: the preset's client count,
// paper: 5). Ignored when WithPartitions supplies explicit splits.
func WithClients(n int) Option {
	return func(c *engineConfig) error {
		if n <= 0 {
			return fmt.Errorf("goldfish: WithClients: need a positive client count, got %d", n)
		}
		c.clients = n
		return nil
	}
}

// WithPartitions supplies explicit per-client datasets (e.g. poisoned or
// heterogeneous splits) instead of the engine's IID partitioning.
func WithPartitions(parts []*Dataset) Option {
	return func(c *engineConfig) error {
		if len(parts) == 0 {
			return fmt.Errorf("goldfish: WithPartitions: no partitions")
		}
		c.parts = parts
		return nil
	}
}

// WithClientConfig overrides the full per-client configuration (model,
// loss, optimizer, epochs, batch size). Required when no dataset
// preset is given; otherwise it replaces the preset's defaults.
func WithClientConfig(cfg Config) Option {
	return func(c *engineConfig) error {
		c.clientCfg = &cfg
		return nil
	}
}

// WithUnlearner selects the unlearning strategy by name: "goldfish" (the
// paper's procedure, default), "retrain" (B1), "fisher" (B2) or
// "incompetent-teacher" (B3). New rejects any other name.
func WithUnlearner(name string) Option {
	return func(c *engineConfig) error {
		if name == "" {
			return fmt.Errorf("goldfish: WithUnlearner: empty strategy name")
		}
		c.unlearner = name
		return nil
	}
}

// WithAggregator selects how client uploads combine into the global model
// (FedAvg by default; AdaptiveWeight for the paper's Eqs. 12–13, which also
// needs a server test set — see WithServerTest).
func WithAggregator(a Aggregator) Option {
	return func(c *engineConfig) error {
		if a == nil {
			return fmt.Errorf("goldfish: WithAggregator: nil aggregator")
		}
		c.agg = a
		return nil
	}
}

// WithServerTest sets the central test set the server scores uploads on
// (MSE of Eq. 12) before adaptive-weight aggregation. With a dataset
// preset it defaults to the preset's test split when AdaptiveWeight is
// selected.
func WithServerTest(ds *Dataset) Option {
	return func(c *engineConfig) error {
		if ds == nil || ds.Len() == 0 {
			return fmt.Errorf("goldfish: WithServerTest: empty dataset")
		}
		c.serverTest = ds
		return nil
	}
}

// WithMinClients sets the minimum number of successful client updates per
// round; fewer aborts the round. Defaults to 1.
func WithMinClients(n int) Option {
	return func(c *engineConfig) error {
		if n <= 0 {
			return fmt.Errorf("goldfish: WithMinClients: need a positive count, got %d", n)
		}
		c.minClients = n
		return nil
	}
}

// WithClientFraction trains only a random fraction of clients each round
// (standard federated client sampling, McMahan et al.); 0 or 1 trains
// everyone. At least one client is always sampled.
func WithClientFraction(f float64) Option {
	return func(c *engineConfig) error {
		if f < 0 || f > 1 {
			return fmt.Errorf("goldfish: WithClientFraction: %g out of [0,1]", f)
		}
		c.fraction = f
		return nil
	}
}

// WithRoundTimeout bounds one round of local training; stragglers whose
// context expires are dropped for the round like crashed clients. 0 (the
// default) disables the bound.
func WithRoundTimeout(d time.Duration) Option {
	return func(c *engineConfig) error {
		if d < 0 {
			return fmt.Errorf("goldfish: WithRoundTimeout: negative timeout %v", d)
		}
		c.timeout = d
		return nil
	}
}

// WithSampleSeed drives the client-sampling randomness of
// WithClientFraction.
func WithSampleSeed(seed int64) Option {
	return func(c *engineConfig) error {
		c.sampleSeed = seed
		return nil
	}
}

// WithRoundHook installs a callback invoked after every aggregated round.
// The RoundStats carry a private copy of the global vector, so hooks may
// retain or mutate it freely.
func WithRoundHook(h func(RoundStats)) Option {
	return func(c *engineConfig) error {
		c.hook = h
		return nil
	}
}

// Engine is a federated-unlearning run: one unlearning strategy's clients
// over the shared round engine, plus data bookkeeping from the dataset
// preset. Build one with New. An Engine is not safe for concurrent use;
// drive it from one goroutine.
type Engine struct {
	fed           *unlearn.Federation
	preset        Preset
	hasPreset     bool
	train, test   *Dataset
	hook          func(RoundStats)
	defaultRounds int
}

// New builds a federated-unlearning engine from functional options. At
// minimum, pass WithDataset (or WithPreset) for a paper preset, or
// WithPartitions together with WithClientConfig for fully custom data:
//
//	e, err := goldfish.New(
//		goldfish.WithDataset("mnist", goldfish.ScaleTiny),
//		goldfish.WithUnlearner("retrain"),
//		goldfish.WithClients(4),
//	)
func New(opts ...Option) (*Engine, error) {
	cfg := engineConfig{seed: 0}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("goldfish: nil option")
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.seed == 0 {
		cfg.seed = 1
	}

	e := &Engine{hook: cfg.hook}

	// Resolve the preset, if any.
	switch {
	case cfg.preset != nil:
		e.preset, e.hasPreset = *cfg.preset, true
	case cfg.dataset != "":
		p, err := NewPresetWithArch(cfg.dataset, cfg.arch, cfg.scale, cfg.seed)
		if err != nil {
			return nil, err
		}
		e.preset, e.hasPreset = p, true
	case cfg.parts == nil:
		return nil, fmt.Errorf("goldfish: no data: pass WithDataset/WithPreset or WithPartitions")
	}

	// Resolve the client configuration.
	var clientCfg Config
	switch {
	case cfg.clientCfg != nil:
		clientCfg = *cfg.clientCfg
	case e.hasPreset:
		clientCfg = e.preset.ClientConfig()
	default:
		return nil, fmt.Errorf("goldfish: WithPartitions without a preset needs WithClientConfig")
	}

	// Materialize data and partitions.
	if e.hasPreset {
		train, test, err := e.preset.Generate()
		if err != nil {
			return nil, err
		}
		e.train, e.test = train, test
		e.defaultRounds = e.preset.Rounds
	}
	parts := cfg.parts
	if parts == nil {
		clients := cfg.clients
		if clients <= 0 {
			clients = e.preset.Clients
		}
		var err error
		if parts, err = data.PartitionIID(e.train, clients, rand.New(rand.NewSource(cfg.seed*7717))); err != nil {
			return nil, err
		}
	} else if cfg.clients > 0 && cfg.clients != len(parts) {
		return nil, fmt.Errorf("goldfish: WithClients(%d) conflicts with %d explicit partitions",
			cfg.clients, len(parts))
	}

	// The paper's adaptive aggregation needs a server-side test set; fall
	// back to the preset's test split when none was given.
	serverTest := cfg.serverTest
	if serverTest == nil {
		if _, adaptive := cfg.agg.(AdaptiveWeight); adaptive && e.test != nil {
			serverTest = e.test
		}
	}

	fedr, err := unlearn.NewFederation(unlearn.Config{
		Client:         clientCfg,
		Strategy:       cfg.unlearner,
		Aggregator:     cfg.agg,
		ServerTest:     serverTest,
		MinClients:     cfg.minClients,
		ClientFraction: cfg.fraction,
		RoundTimeout:   cfg.timeout,
		SampleSeed:     cfg.sampleSeed,
	}, parts)
	if err != nil {
		return nil, err
	}
	e.fed = fedr
	return e, nil
}

// Run executes n federation rounds (n <= 0 selects the preset's default
// round budget), invoking the WithRoundHook callback after each. It honours
// ctx cancellation.
func (e *Engine) Run(ctx context.Context, n int) error {
	if n <= 0 {
		n = e.defaultRounds
	}
	if n <= 0 {
		return fmt.Errorf("goldfish: no round budget: pass a positive round count or use a dataset preset")
	}
	return e.fed.Run(ctx, n, e.hook)
}

// RequestDeletion submits a deletion request for rows of a client's local
// dataset; the configured strategy decides how it is honoured on the next
// Run. clientID is the client's current position (as in Partitions()),
// which shifts down when an earlier participant is removed. rows index the
// client's ORIGINAL dataset under every strategy, in any order; a row that
// is out of range, already deleted or listed twice rejects the whole
// request and deletes nothing, as does a request for every row the client
// has left (use RemoveClient(clientID, true) to forget a whole client).
func (e *Engine) RequestDeletion(clientID int, rows []int) error {
	return e.fed.RequestDeletion(clientID, rows)
}

// RequestSampleDeletion is RequestDeletion under its former name.
//
// Deprecated: use RequestDeletion.
func (e *Engine) RequestSampleDeletion(clientID int, rows []int) error {
	return e.RequestDeletion(clientID, rows)
}

// RequestClassDeletion submits a class-level deletion request: every
// remaining sample labelled class, across all participants, is removed. It
// returns the deleted original row indices keyed by client position. A
// client holding nothing but that class rejects the whole request and
// nothing is deleted anywhere.
func (e *Engine) RequestClassDeletion(class int) (map[int][]int, error) {
	return e.fed.RequestClassDeletion(class)
}

// RemainingRows returns the not-yet-deleted original row indices of a
// client's dataset.
func (e *Engine) RemainingRows(clientID int) []int {
	return e.fed.RemainingRows(clientID)
}

// RemainingRowsOfClass returns the not-yet-deleted original row indices of a
// client's samples labelled class.
func (e *Engine) RemainingRowsOfClass(clientID, class int) []int {
	return e.fed.RemainingRowsOfClass(clientID, class)
}

// AddClient registers a new participant holding the given local dataset and
// returns its lifetime-unique client ID. Every strategy but
// "incompetent-teacher" accepts it.
func (e *Engine) AddClient(ds *Dataset) (int, error) { return e.fed.AddClient(ds) }

// RemoveClient removes the participant at the given current position (the
// positions of later participants shift down by one). When unlearn is true
// the departure is treated as a deletion request for the client's entire
// remaining dataset. Every strategy but "incompetent-teacher" accepts it.
func (e *Engine) RemoveClient(clientID int, unlearn bool) error {
	return e.fed.RemoveClient(clientID, unlearn)
}

// Strategy returns the name of the active unlearning strategy.
func (e *Engine) Strategy() string { return e.fed.StrategyName() }

// NumClients returns the number of participants.
func (e *Engine) NumClients() int { return e.fed.NumClients() }

// Client returns a read-only view of participant i, or nil when i is out of
// range.
func (e *Engine) Client(i int) *Client {
	c := e.fed.Client(i)
	if c == nil {
		return nil
	}
	return &Client{c: c}
}

// Round returns the number of completed rounds.
func (e *Engine) Round() int { return e.fed.Round() }

// Global returns a copy of the current global state vector.
func (e *Engine) Global() []float64 { return e.fed.Global() }

// GlobalNet returns a fresh network loaded with the current global state.
func (e *Engine) GlobalNet() (*Network, error) { return e.fed.GlobalNet() }

// TrainData returns the preset's generated training set (nil without a
// preset).
func (e *Engine) TrainData() *Dataset { return e.train }

// TestData returns the preset's generated test set (nil without a preset).
func (e *Engine) TestData() *Dataset { return e.test }

// Partitions returns the per-client ORIGINAL datasets the engine trains on,
// by current position, in a slice the caller owns.
func (e *Engine) Partitions() []*Dataset {
	out := make([]*Dataset, e.fed.NumClients())
	for i := range out {
		out[i] = e.fed.Partition(i)
	}
	return out
}

// DefaultRounds returns the preset's round budget (0 without a preset).
func (e *Engine) DefaultRounds() int { return e.defaultRounds }

// TestAccuracy evaluates the current global model on ds; nil selects the
// preset's test set.
func (e *Engine) TestAccuracy(ds *Dataset) (float64, error) {
	if ds == nil {
		ds = e.test
	}
	if ds == nil {
		return 0, fmt.Errorf("goldfish: no test set: pass one or use a dataset preset")
	}
	return e.fed.TestAccuracy(ds)
}
