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

// Client is one federation participant: it owns its local data and the
// unlearning state of its Procedure (removed rows, forget set, teacher and
// incompetent weights as vectors, optimizer, batch-order RNG), but no
// network. Each round borrows a network set from the client's Pool and
// loads it from the global model and those vectors. Client implements
// fed.LocalTrainer. Under Goldfish a round is normal (Algorithm 1's
// LocalTraining on active data), unlearn (a deletion is pending: the
// previous global teaches the reinitialized incoming one, with forget steps
// on Df) or retrain (another client deleted data: the same with empty Df).
// Deletions reach a client only through ForgetAt.
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
	pool *Pool

	mu      sync.Mutex
	dataset *data.Dataset
	removed map[int]bool  // rows logically deleted from dataset
	df      *data.Dataset // forget set: pending until the next round, or for good under FrozenGlobal
	dfRows  []int         // the rows of df, in the order they were forgotten
	retrain bool          // participate in KD retraining next round

	teacherVec     []float64 // the previous global, or the one frozen at the deletion; nil under NoTeacher
	incompetentVec []float64 // the random teacher of the Incompetent forget step
	opt            Stepper   // kept between rounds unless the lifetime is PerRound
	lastEpochs     int
	rng            *rand.Rand
}

var _ fed.LocalTrainer = (*Client)(nil)

// Pool lends network sets to the clients of one federation, which share its
// procedure and configuration. A round borrows one set for its duration: a
// student, a teacher and an incompetent network, each built the first time
// a round needs it, plus the epoch's buffers. Every network is loaded from
// the client's vectors before it is read, so nothing passes from one
// borrower to the next but buffer capacity, and a set keeps its buffers
// across rounds. The pool builds a set only when every one it holds is
// lent, so it holds one set per client that trains at the same time.
type Pool struct {
	proc Procedure
	cfg  Config

	mu   sync.Mutex
	free []*netSet
}

// netSet is one borrowable set of networks and epoch buffers.
type netSet struct {
	student, teacher, incompetent *nn.Network
	buffers
}

// NewPool returns an empty pool for clients training under p with cfg.
func NewPool(p Procedure, cfg Config) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if p.KDOnly && cfg.Loss.Temp <= 0 {
		return nil, fmt.Errorf("core: distillation temperature must be positive, got %g", cfg.Loss.Temp)
	}
	return &Pool{proc: p, cfg: cfg}, nil
}

// get lends out a free set, or a new empty one.
func (p *Pool) get() *netSet {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return new(netSet)
}

// put takes back a set get lent out.
func (p *Pool) put(s *netSet) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, s)
}

// load loads v into the network in *slot, building it first if the slot is
// empty; the model seed does not matter, as v replaces every value it set.
func (p *Pool) load(slot **nn.Network, v []float64) (*nn.Network, error) {
	if *slot == nil {
		net, err := model.Build(p.cfg.Model)
		if err != nil {
			return nil, err
		}
		*slot = net
	}
	return *slot, (*slot).SetStateVector(v)
}

// NewClient builds a client under the Goldfish procedure over its local
// dataset, with a pool of its own.
func NewClient(id int, cfg Config, ds *data.Dataset) (*Client, error) {
	return Goldfish.NewClient(id, cfg, ds)
}

// NewClient builds a client training under p over its local dataset, with
// a pool of its own.
func (p Procedure) NewClient(id int, cfg Config, ds *data.Dataset) (*Client, error) {
	pool, err := NewPool(p, cfg)
	if err != nil {
		return nil, err
	}
	return pool.NewClient(id, ds)
}

// NewClient builds a client over its local dataset that trains under the
// pool's procedure and configuration, on sets borrowed from the pool.
func (p *Pool) NewClient(id int, ds *data.Dataset) (*Client, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("core: client %d has no local data", id)
	}
	c := &Client{
		id:      id,
		cfg:     p.cfg,
		proc:    p.proc,
		pool:    p,
		dataset: ds,
		removed: make(map[int]bool),
		rng:     rand.New(rand.NewSource(p.cfg.Seed*p.proc.SeedMul + int64(id))),
	}
	if p.proc.Forget == Incompetent {
		mcfg := p.cfg.Model
		mcfg.Seed = p.cfg.Seed + int64(id)*6151 + 99
		net, err := model.Build(mcfg)
		if err != nil {
			return nil, err
		}
		c.incompetentVec = net.StateVector()
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

// ForgetAt is how a deletion its federation accepted reaches c, made while
// global was the federation's global model (Algorithm 1 lines 8–17). With
// rows set, c is the owner: the rows, which index c's ORIGINAL dataset, are
// excluded from all future training at once, the next round runs the
// procedure's forget step against them, and a procedure with a FrozenGlobal
// teacher keeps global as that teacher. With rows empty another participant
// deleted data: under a PreviousGlobal teacher c rebuilds by distillation
// next round (line 15). Either way an UntilDeletion optimizer is dropped.
//
// The federation's Apply is the one caller and the one check: rows must be
// in range, not removed before, listed once, and leave c at least one row.
func ForgetAt(c *Client, rows []int, global []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.proc.Optimizer == UntilDeletion {
		c.opt = nil
	}
	if len(rows) == 0 {
		c.retrain = true
		return
	}
	for _, r := range rows {
		c.removed[r] = true
	}
	if c.proc.Forget != NoForget {
		c.dfRows = append(c.dfRows, rows...)
		c.df = c.dataset.Subset(c.dfRows)
	}
	if c.proc.Teacher == FrozenGlobal {
		c.teacherVec = append([]float64(nil), global...)
	}
}

// RemainingRows returns the not-yet-removed original row indices of c's
// dataset, in ascending order: the one record of what c has forgotten.
func RemainingRows(c *Client) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.activeRowsLocked()
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
// the procedure, on a network set borrowed from the client's pool.
func (c *Client) TrainRound(ctx context.Context, round int, global []float64) (fed.ModelUpdate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.pool.get()
	defer c.pool.put(s)

	student, err := c.pool.load(&s.student, global)
	if err != nil {
		return fed.ModelUpdate{}, fmt.Errorf("core: client %d: loading global model: %w", c.id, err)
	}

	gl := c.cfg.Loss
	if c.proc.Hard != nil {
		gl.Hard = c.proc.Hard
	}
	drIdx := c.activeRowsLocked() // never empty: Apply leaves every client a row
	e := epoch{student: student, ds: c.dataset, drIdx: drIdx, df: c.df, kdOnly: c.proc.KDOnly,
		batchSize: c.cfg.BatchSize, rng: c.rng, buffers: &s.buffers}
	if c.teacherVec != nil {
		if e.teacher, err = c.pool.load(&s.teacher, c.teacherVec); err != nil {
			return fed.ModelUpdate{}, fmt.Errorf("core: client %d: loading teacher model: %w", c.id, err)
		}
	}
	if c.incompetentVec != nil && e.forgets() {
		if e.incompetent, err = c.pool.load(&s.incompetent, c.incompetentVec); err != nil {
			return fed.ModelUpdate{}, fmt.Errorf("core: client %d: loading incompetent model: %w", c.id, err)
		}
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
		opt, err := c.proc.newStepper(c.cfg.Opt, student)
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
		c.df, c.dfRows = nil, nil
	}

	return fed.ModelUpdate{
		ClientID:   c.id,
		Round:      round,
		Params:     student.StateVector(),
		NumSamples: len(drIdx),
		TrainLoss:  last.TotalLoss,
	}, nil
}
