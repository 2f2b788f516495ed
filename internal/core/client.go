package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"goldfish/internal/data"
	"goldfish/internal/fed"
	"goldfish/internal/model"
	"goldfish/internal/nn"
	"goldfish/internal/optim"
)

// Client is one federation participant: it owns local data, the local
// model, and the unlearning state machine of Algorithm 1. Client implements
// fed.LocalTrainer.
//
// A client is in one of three modes for a round:
//
//   - normal: plain local training on active data (LocalTraining procedure);
//   - unlearn: a deletion is pending — run the Goldfish procedure with
//     teacher = previous global, student = the (reinitialized) incoming
//     global, forget steps on Df;
//   - retrain: another client deleted data — rebuild the own model by
//     distilling from the previous global on own data (Goldfish procedure
//     with empty Df).
type Client struct {
	id  int
	cfg Config

	mu        sync.Mutex
	dataset   *data.Dataset
	removed   map[int]bool  // rows logically deleted from dataset
	pendingDf *data.Dataset // removed data awaiting the unlearning round
	retrain   bool          // participate in KD retraining next round

	student    *nn.Network
	teacher    *nn.Network
	lastGlobal []float64
	lastEpochs int
	rng        *rand.Rand
}

var _ fed.LocalTrainer = (*Client)(nil)

// NewClient builds a client over its local dataset.
func NewClient(id int, cfg Config, ds *data.Dataset) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("core: client %d has no local data", id)
	}
	mcfg := cfg.Model
	mcfg.Seed = cfg.Model.Seed + int64(id)*1009 + 7
	student, err := model.Build(mcfg)
	if err != nil {
		return nil, err
	}
	teacher, err := model.Build(mcfg)
	if err != nil {
		return nil, err
	}
	return &Client{
		id:      id,
		cfg:     cfg,
		dataset: ds,
		removed: make(map[int]bool),
		student: student,
		teacher: teacher,
		rng:     rand.New(rand.NewSource(cfg.Seed*100003 + int64(id))),
	}, nil
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

// RequestDeletion marks the given local rows for removal. The data is
// excluded from all future training immediately; the next TrainRound runs
// the Goldfish unlearning procedure against it. Already-removed,
// out-of-range and repeated rows are rejected: a row listed twice would enter
// Df twice and be weighted double by the forget steps.
func (c *Client) RequestDeletion(rows []int) error {
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
	df := c.dataset.Subset(rows)
	if c.pendingDf != nil {
		merged, err := c.pendingDf.Concat(df)
		if err != nil {
			return fmt.Errorf("core: client %d: merging deletion requests: %w", c.id, err)
		}
		c.pendingDf = merged
	} else {
		c.pendingDf = df
	}
	for _, r := range rows {
		c.removed[r] = true
	}
	return nil
}

// MarkRetrain asks the client to participate in the distillation-based
// retraining triggered by another client's deletion (Algorithm 1 line 15).
func (c *Client) MarkRetrain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retrain = true
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
// Algorithm 1.
func (c *Client) TrainRound(ctx context.Context, round int, global []float64) (fed.ModelUpdate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The client is idle until the next round: drop every batch-sized
	// activation cache and scratch buffer so waiting clients pin no memory.
	defer c.teacher.ReleaseActivations()
	defer c.student.ReleaseActivations()

	teacherVec := c.lastGlobal
	c.lastGlobal = append([]float64(nil), global...)
	if err := c.student.SetStateVector(global); err != nil {
		return fed.ModelUpdate{}, fmt.Errorf("core: client %d: loading global model: %w", c.id, err)
	}

	gl := c.cfg.Loss
	df := c.pendingDf
	unlearning := df != nil && df.Len() > 0
	distill := unlearning || c.retrain

	var teacher *nn.Network
	if teacherVec != nil {
		if err := c.teacher.SetStateVector(teacherVec); err != nil {
			return fed.ModelUpdate{}, fmt.Errorf("core: client %d: loading teacher model: %w", c.id, err)
		}
		teacher = c.teacher
	}
	if !distill || teacher == nil {
		// Algorithm 1's LocalTraining: plain hard-loss descent. Distillation
		// only runs in the Goldfish procedure (deletion rounds).
		gl.MuD = 0
	}

	drIdx := c.activeRowsLocked()
	if len(drIdx) == 0 {
		return fed.ModelUpdate{}, fmt.Errorf("core: client %d: no remaining data", c.id)
	}

	if unlearning && c.cfg.AdaptiveTemp && gl.MuD > 0 {
		gl.Temp = AdaptiveTemperature(c.cfg.TempAlpha, c.cfg.Loss.Temp, len(drIdx), df.Len())
	}

	var stopper *optim.EarlyStopper
	if c.cfg.EarlyDelta > 0 && teacher != nil {
		ref := EvalHardLoss(teacher, c.dataset, drIdx, gl.Hard, c.cfg.BatchSize)
		es, err := optim.NewEarlyStopper(c.cfg.EarlyDelta, ref)
		if err != nil {
			return fed.ModelUpdate{}, fmt.Errorf("core: client %d: %w", c.id, err)
		}
		stopper = es
	}

	opt, err := optim.NewSGD(c.cfg.Opt)
	if err != nil {
		return fed.ModelUpdate{}, fmt.Errorf("core: client %d: %w", c.id, err)
	}
	var dfTrain *data.Dataset
	if unlearning {
		dfTrain = df
	}
	last, epochs, err := TrainLocal(ctx, c.student, teacher, c.dataset, drIdx, dfTrain,
		gl, opt, c.cfg.BatchSize, c.cfg.LocalEpochs, stopper, c.rng)
	if err != nil {
		return fed.ModelUpdate{}, fmt.Errorf("core: client %d: round %d: %w", c.id, round, err)
	}
	c.lastEpochs = epochs
	c.pendingDf = nil
	c.retrain = false

	return fed.ModelUpdate{
		ClientID:   c.id,
		Round:      round,
		Params:     c.student.StateVector(),
		NumSamples: len(drIdx),
		TrainLoss:  last.TotalLoss,
	}, nil
}
