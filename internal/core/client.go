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
	"goldfish/internal/shard"
)

// Client is one federation participant: it owns local data, the local
// model (or per-shard models when sharding is enabled), and the unlearning
// state machine of Algorithm 1. Client implements fed.LocalTrainer.
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

	mu         sync.Mutex
	dataset    *data.Dataset
	removed    map[int]bool  // rows logically deleted from dataset
	pendingDf  *data.Dataset // removed data awaiting the unlearning round
	pendingIdx []int
	retrain    bool // participate in KD retraining next round

	student    *nn.Network
	teacher    *nn.Network
	shards     *shard.Manager
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
	c := &Client{
		id:      id,
		cfg:     cfg,
		dataset: ds,
		removed: make(map[int]bool),
		student: student,
		teacher: teacher,
		rng:     rand.New(rand.NewSource(cfg.Seed*100003 + int64(id))),
	}
	if cfg.Shards > 1 {
		mgr, err := shard.NewManager(student, ds.Len(), cfg.Shards, c.rng)
		if err != nil {
			return nil, fmt.Errorf("core: client %d: %w", id, err)
		}
		c.shards = mgr
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
		c.pendingIdx = append(c.pendingIdx, rows...)
	} else {
		c.pendingDf = df
		c.pendingIdx = append([]int(nil), rows...)
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

	teacherVec := c.lastGlobal
	c.lastGlobal = append([]float64(nil), global...)

	var (
		update fed.ModelUpdate
		err    error
	)
	if c.shards != nil {
		update, err = c.trainShardedLocked(ctx, round, teacherVec)
	} else {
		update, err = c.trainPlainLocked(ctx, round, global, teacherVec)
	}
	// The client is idle until the next round: drop every batch-sized
	// activation cache and scratch buffer so waiting clients pin no memory.
	c.student.ReleaseActivations()
	c.teacher.ReleaseActivations()
	if c.shards != nil {
		for i := 0; i < c.shards.NumShards(); i++ {
			c.shards.Shard(i).Model.ReleaseActivations()
		}
	}
	if err != nil {
		return fed.ModelUpdate{}, err
	}
	c.pendingDf = nil
	c.pendingIdx = nil
	c.retrain = false
	return update, nil
}

// trainPlainLocked is the non-sharded client round.
func (c *Client) trainPlainLocked(ctx context.Context, round int, global, teacherVec []float64) (fed.ModelUpdate, error) {
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

	return fed.ModelUpdate{
		ClientID:   c.id,
		Round:      round,
		Params:     c.student.StateVector(),
		NumSamples: len(drIdx),
		TrainLoss:  last.TotalLoss,
	}, nil
}

// trainShardedLocked is the SISA-sharded client round. Shard models persist
// locally across rounds; on deletion only affected shards retrain from
// their checkpoints (Eq. 9), and the upload is always the Eq. 8 aggregate.
// Early termination is not applied per shard (fixed LocalEpochs), matching
// the paper's treatment of sharding as an independent optimization.
func (c *Client) trainShardedLocked(ctx context.Context, round int, teacherVec []float64) (fed.ModelUpdate, error) {
	gl := c.cfg.Loss
	df := c.pendingDf
	unlearning := df != nil && df.Len() > 0

	var toTrain []int
	dfByShard := make(map[int]*data.Dataset)
	if unlearning {
		affected := c.shards.AffectedShards(c.pendingIdx)
		// Per-shard removed rows, captured before deletion.
		rm := make(map[int]bool, len(c.pendingIdx))
		for _, r := range c.pendingIdx {
			rm[r] = true
		}
		for _, si := range affected {
			var rows []int
			for _, idx := range c.shards.Shard(si).Indices {
				if rm[idx] {
					rows = append(rows, idx)
				}
			}
			dfByShard[si] = c.dataset.Subset(rows)
		}
		c.shards.DeleteSamples(c.pendingIdx)
		toTrain = affected
	} else {
		toTrain = make([]int, c.shards.NumShards())
		for i := range toTrain {
			toTrain[i] = i
		}
		gl.MuD = 0 // plain local training between deletions
	}

	var teacher *nn.Network
	if unlearning && teacherVec != nil && gl.MuD > 0 {
		if err := c.teacher.SetStateVector(teacherVec); err != nil {
			return fed.ModelUpdate{}, fmt.Errorf("core: client %d: loading teacher model: %w", c.id, err)
		}
		teacher = c.teacher
	} else {
		gl.MuD = 0
	}
	if unlearning && c.cfg.AdaptiveTemp && gl.MuD > 0 {
		gl.Temp = AdaptiveTemperature(c.cfg.TempAlpha, c.cfg.Loss.Temp,
			c.shards.TotalSamples(), df.Len())
	}

	seedBase := c.rng.Int63()
	err := c.shards.RetrainAffected(toTrain, func(shardIdx int, m *nn.Network, indices []int) error {
		if len(indices) == 0 {
			return nil // shard fully emptied by the deletion
		}
		opt, err := optim.NewSGD(c.cfg.Opt)
		if err != nil {
			return err
		}
		var shardTeacher *nn.Network
		if teacher != nil {
			shardTeacher = teacher.Clone() // layer caches are not goroutine-safe
		}
		shardDf := dfByShard[shardIdx]
		rng := rand.New(rand.NewSource(seedBase + int64(shardIdx)*131))
		_, _, err = TrainLocal(ctx, m, shardTeacher, c.dataset, indices, shardDf,
			gl, opt, c.cfg.BatchSize, c.cfg.LocalEpochs, nil, rng)
		return err
	})
	if err != nil {
		return fed.ModelUpdate{}, fmt.Errorf("core: client %d: round %d: %w", c.id, round, err)
	}
	c.lastEpochs = c.cfg.LocalEpochs

	return fed.ModelUpdate{
		ClientID:   c.id,
		Round:      round,
		Params:     c.shards.Aggregate(),
		NumSamples: c.shards.TotalSamples(),
	}, nil
}

// Shards exposes the shard manager (nil when sharding is disabled); the
// sharding experiments inspect it.
func (c *Client) Shards() *shard.Manager { return c.shards }
