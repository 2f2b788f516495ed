package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"goldfish/internal/data"
	"goldfish/internal/fed"
	"goldfish/internal/loss"
	"goldfish/internal/model"
	"goldfish/internal/nn"
	"goldfish/internal/optim"
)

// Client is one federation participant: it owns local data, the local
// model, and the unlearning state of its Procedure. Client implements
// fed.LocalTrainer. Under Goldfish a round is normal (Algorithm 1's
// LocalTraining on active data), unlearn (a deletion is pending: the
// previous global teaches the reinitialized incoming one, with forget steps
// on Df) or retrain (another client deleted data: the same with empty Df).
//
// A teacher is frozen for the whole round, so a round forwards it once, at
// its start, over the rows the round reads: the retain teacher over the
// remaining rows and B3's incompetent network over Df. Every epoch then
// reads the teachers' logits from that pass, and the Eq. 7 reference is
// that pass's mean hard loss. A round that fails leaves the teacher of the
// next round as it was.
type Client struct {
	id   int
	cfg  Config
	proc Procedure

	mu      sync.Mutex
	dataset *data.Dataset
	removed map[int]bool  // rows logically deleted from dataset
	df      *data.Dataset // forget set: pending until the next round, or for good under FrozenGlobal
	retrain bool          // participate in KD retraining next round

	student     *nn.Network
	teacher     *nn.Network // loaded from teacherVec each round; nil under NoTeacher
	teacherVec  []float64   // the previous global, or the one frozen at the deletion
	incompetent *nn.Network // the random teacher of the Incompetent forget step
	opt         Stepper     // kept between rounds unless the lifetime is PerRound
	lastEpochs  int
	rng         *rand.Rand
}

var _ fed.LocalTrainer = (*Client)(nil)

// NewClient builds a client under the Goldfish procedure over its local
// dataset.
func NewClient(id int, cfg Config, ds *data.Dataset) (*Client, error) {
	return Goldfish.NewClient(id, cfg, ds)
}

// NewClient builds a client training under p over its local dataset.
func (p Procedure) NewClient(id int, cfg Config, ds *data.Dataset) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("core: client %d has no local data", id)
	}
	if p.KDOnly && cfg.Loss.Temp <= 0 {
		return nil, fmt.Errorf("core: distillation temperature must be positive, got %g", cfg.Loss.Temp)
	}
	c := &Client{
		id:      id,
		cfg:     cfg,
		proc:    p,
		dataset: ds,
		removed: make(map[int]bool),
		rng:     rand.New(rand.NewSource(cfg.Seed*p.SeedMul + int64(id))),
	}
	// Every network but the incompetent one is loaded before it is used,
	// so its seed does not matter.
	build := func(seed int64) (*nn.Network, error) {
		mcfg := cfg.Model
		mcfg.Seed = seed
		return model.Build(mcfg)
	}
	var err error
	if c.student, err = build(cfg.Model.Seed + int64(id)*1009 + 7); err != nil {
		return nil, err
	}
	if p.Teacher != NoTeacher {
		if c.teacher, err = build(cfg.Model.Seed + int64(id)*1009 + 7); err != nil {
			return nil, err
		}
	}
	if p.Forget == Incompetent {
		if c.incompetent, err = build(cfg.Seed + int64(id)*6151 + 99); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// ID returns the client identifier.
func (c *Client) ID() int { return c.id }

// NumActive returns the number of local rows not logically removed.
func (c *Client) NumActive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dataset.Len() - len(c.removed)
}

// LastEpochs reports how many local epochs the most recent round actually
// ran (shorter than LocalEpochs when early termination fired).
func (c *Client) LastEpochs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastEpochs
}

// RequestDeletion marks the given local rows for removal. Rows index the
// client's ORIGINAL dataset, however many requests came before. The data is
// excluded from all future training immediately; the next TrainRound runs
// the procedure's forget step against it. Already-removed, out-of-range and
// repeated rows are rejected — a row listed twice would enter Df twice and
// be weighted double by the forget steps — and so is a request that leaves
// no row to train on. A rejected request changes nothing. A procedure with a
// FrozenGlobal teacher needs the global model as well: use ForgetAt.
func (c *Client) RequestDeletion(rows []int) error { return c.forget(rows, nil) }

// ForgetAt is c.RequestDeletion for a deletion made while global is the
// federation's global model: a procedure with a FrozenGlobal teacher keeps
// it as that teacher, and the others ignore it.
func ForgetAt(c *Client, rows []int, global []float64) error { return c.forget(rows, global) }

func (c *Client) forget(rows []int, global []float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(rows) == 0 {
		return fmt.Errorf("core: client %d: empty deletion request", c.id)
	}
	seen := make(map[int]bool, len(rows))
	for _, r := range rows {
		if r < 0 || r >= c.dataset.Len() {
			return fmt.Errorf("core: client %d: row %d out of range [0,%d)", c.id, r, c.dataset.Len())
		}
		if c.removed[r] {
			return fmt.Errorf("core: client %d: row %d already removed", c.id, r)
		}
		if seen[r] {
			return fmt.Errorf("core: client %d: row %d listed twice in one request", c.id, r)
		}
		seen[r] = true
	}
	if len(c.removed)+len(rows) == c.dataset.Len() {
		// Every later round would fail with no data left to train on.
		return fmt.Errorf("core: client %d: request removes all %d remaining rows", c.id, len(rows))
	}
	if c.proc.Teacher == FrozenGlobal {
		// The teacher is reloaded every round; loading here only validates.
		if err := c.teacher.SetStateVector(global); err != nil {
			return fmt.Errorf("core: client %d: loading the global model to freeze as teacher: %w", c.id, err)
		}
	}
	df := c.df
	if c.proc.Forget != NoForget {
		df = c.dataset.Subset(rows)
		if c.df != nil {
			var err error
			if df, err = c.df.Concat(df); err != nil {
				return fmt.Errorf("core: client %d: merging deletion requests: %w", c.id, err)
			}
		}
	}

	for _, r := range rows {
		c.removed[r] = true
	}
	c.df = df
	if c.proc.Teacher == FrozenGlobal {
		c.teacherVec = append([]float64(nil), global...)
	}
	if c.proc.Optimizer == UntilDeletion {
		c.opt = nil
	}
	return nil
}

// MarkRetrain tells the client that another participant is deleting data
// (Algorithm 1 line 15). Under a PreviousGlobal teacher the client rebuilds
// by distillation next round; an UntilDeletion optimizer is dropped; other
// procedures carry on unchanged.
func (c *Client) MarkRetrain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retrain = true
	if c.proc.Optimizer == UntilDeletion {
		c.opt = nil
	}
}

// activeRowsLocked returns indices of rows not logically removed.
func (c *Client) activeRowsLocked() []int {
	out := make([]int, 0, c.dataset.Len()-len(c.removed))
	for i := 0; i < c.dataset.Len(); i++ {
		if !c.removed[i] {
			out = append(out, i)
		}
	}
	return out
}

// TrainRound implements fed.LocalTrainer: one round of the client side of
// the procedure.
func (c *Client) TrainRound(ctx context.Context, round int, global []float64) (fed.ModelUpdate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The client is idle until the next round: drop every batch-sized
	// activation cache and scratch buffer so waiting clients pin no memory.
	defer c.releaseActivations()

	if err := c.student.SetStateVector(global); err != nil {
		return fed.ModelUpdate{}, fmt.Errorf("core: client %d: loading global model: %w", c.id, err)
	}

	gl := c.cfg.Loss
	if c.proc.Hard != nil {
		gl.Hard = c.proc.Hard
	}
	drIdx := c.activeRowsLocked() // never empty: forget keeps a row
	e := epoch{student: c.student, ds: c.dataset, drIdx: drIdx, df: c.df, kdOnly: c.proc.KDOnly,
		incompetent: c.incompetent, batchSize: c.cfg.BatchSize, rng: c.rng}
	if c.teacherVec != nil {
		if err := c.teacher.SetStateVector(c.teacherVec); err != nil {
			return fed.ModelUpdate{}, fmt.Errorf("core: client %d: loading teacher model: %w", c.id, err)
		}
		e.teacher = c.teacher
	}

	var ref loss.Hard // set when the round may stop early (Eq. 7)
	if c.proc.Teacher == PreviousGlobal {
		unlearning := e.forgets()
		if !(unlearning || c.retrain) || e.teacher == nil {
			// Algorithm 1's LocalTraining: plain hard-loss descent.
			// Distillation only runs in the Goldfish procedure (deletion
			// rounds).
			gl.MuD = 0
		}
		if unlearning && c.cfg.AdaptiveTemp && gl.MuD > 0 {
			gl.Temp = AdaptiveTemperature(c.cfg.TempAlpha, c.cfg.Loss.Temp, len(drIdx), e.df.Len())
		}
		if c.cfg.EarlyDelta > 0 && e.teacher != nil {
			ref = gl.Hard
		}
	}
	e.gl = gl

	// The round's one forward of its frozen teachers: the distillation
	// targets and the Eq. 7 reference come from the same pass.
	refLoss, err := e.forwardTeachers(ctx, ref)
	if err != nil {
		return fed.ModelUpdate{}, fmt.Errorf("core: client %d: round %d: %w", c.id, round, err)
	}
	var stopper *optim.EarlyStopper
	if ref != nil {
		if stopper, err = optim.NewEarlyStopper(c.cfg.EarlyDelta, refLoss); err != nil {
			return fed.ModelUpdate{}, fmt.Errorf("core: client %d: %w", c.id, err)
		}
	}

	e.opt = c.opt
	if e.opt == nil {
		opt, err := c.proc.newStepper(c.cfg.Opt, c.student)
		if err != nil {
			return fed.ModelUpdate{}, fmt.Errorf("core: client %d: %w", c.id, err)
		}
		e.opt = opt
		if c.proc.Optimizer != PerRound {
			c.opt = opt
		}
	}

	var last EpochResult
	epochs := 0
	for epochs < c.cfg.LocalEpochs {
		res, err := e.run(ctx)
		if err != nil {
			return fed.ModelUpdate{}, fmt.Errorf("core: client %d: round %d: %w", c.id, round, err)
		}
		last = res
		epochs++
		if stopper != nil {
			stopper.Observe(res.HardLoss)
			if stopper.ShouldStop() {
				break
			}
		}
	}
	c.lastEpochs = epochs
	c.retrain = false
	if c.proc.Teacher == PreviousGlobal {
		// Only the global of a round that succeeded teaches the next one: a
		// failed round may have been sent the fresh model of a deletion,
		// which must not replace the teacher its retry distils from. The
		// previous teacher's vector is loaded, so its storage is reused.
		c.teacherVec = append(c.teacherVec[:0], global...)
	}
	if c.proc.Teacher != FrozenGlobal {
		c.df = nil
	}

	return fed.ModelUpdate{
		ClientID:   c.id,
		Round:      round,
		Params:     c.student.StateVector(),
		NumSamples: len(drIdx),
		TrainLoss:  last.TotalLoss,
	}, nil
}

// releaseActivations drops the batch-sized buffers of every network the
// client holds.
func (c *Client) releaseActivations() {
	for _, n := range [...]*nn.Network{c.student, c.teacher, c.incompetent} {
		if n != nil {
			n.ReleaseActivations()
		}
	}
}
