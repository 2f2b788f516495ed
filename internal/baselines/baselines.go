// Package baselines implements the three comparison systems of the paper's
// evaluation (§IV-A "Baselines"):
//
//   - B1 — retrain from scratch after dropping the removed data
//     (the reference unlearning procedure, as in Zhang et al. [23]);
//   - B2 — rapid retraining guided by diagonal Fisher information
//     (Liu et al. [21]; README "Unlearning strategies" names the
//     diagonal-Fisher substitution);
//   - B3 — incompetent-teacher unlearning (Chundawat et al. [35]): distill
//     from the competent (original) teacher on remaining data and from a
//     randomly initialized incompetent teacher on removed data.
//
// Running B1 with no removals doubles as the "origin" model (train on
// everything, never unlearn).
//
// The package holds only the per-client trainers (PlainTrainer,
// IncompetentTrainer). The baselines run as the "retrain", "fisher" and
// "incompetent-teacher" strategies of internal/unlearn, which drive these
// trainers through the same round engine as the Goldfish procedure.
package baselines

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/fed"
	"goldfish/internal/loss"
	"goldfish/internal/model"
	"goldfish/internal/nn"
	"goldfish/internal/optim"
	"goldfish/internal/tensor"
)

// Scenario bundles the training setup shared by all baselines.
type Scenario struct {
	// Model is the architecture every participant trains.
	Model model.Config
	// Opt configures local SGD.
	Opt optim.SGDConfig
	// LocalEpochs is the number of local epochs per round.
	LocalEpochs int
	// BatchSize is the local mini-batch size.
	BatchSize int
	// Seed drives all baseline randomness.
	Seed int64
}

// Validate reports scenario errors.
func (s Scenario) Validate() error {
	if err := s.Opt.Validate(); err != nil {
		return fmt.Errorf("baselines: %w", err)
	}
	if s.LocalEpochs <= 0 {
		return fmt.Errorf("baselines: LocalEpochs must be positive, got %d", s.LocalEpochs)
	}
	if s.BatchSize <= 0 {
		return fmt.Errorf("baselines: BatchSize must be positive, got %d", s.BatchSize)
	}
	return nil
}

// PlainTrainer is per-client local SGD on hard loss, optionally with
// diagonal-FIM preconditioning (the B2 rapid-retraining rule). It implements
// fed.LocalTrainer.
type PlainTrainer struct {
	id      int
	sc      Scenario
	orig    *data.Dataset // the dataset as handed to the constructor; Forget rows index it
	removed []int         // original rows forgotten so far
	ds      *data.Dataset // training view: orig without removed, rebuilt by Forget
	net     *nn.Network
	opt     core.Stepper // plain SGD (B1) or its Fisher-preconditioned wrapper (B2)
	rng     *rand.Rand
	precond bool
}

var _ fed.LocalTrainer = (*PlainTrainer)(nil)

// NewPlainTrainer builds a B1/B2 client over its local dataset. precond
// enables the B2 Fisher preconditioning.
func NewPlainTrainer(id int, sc Scenario, ds *data.Dataset, precond bool) (*PlainTrainer, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("baselines: client %d has no data", id)
	}
	mcfg := sc.Model
	mcfg.Seed = sc.Model.Seed + int64(id)*977 + 13
	net, err := model.Build(mcfg)
	if err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	p := &PlainTrainer{
		id:      id,
		sc:      sc,
		orig:    ds,
		ds:      ds,
		net:     net,
		rng:     rand.New(rand.NewSource(sc.Seed*7907 + int64(id))),
		precond: precond,
	}
	if err := p.Reset(); err != nil {
		return nil, err
	}
	return p, nil
}

// NumSamples returns the client's current local dataset size.
func (p *PlainTrainer) NumSamples() int { return p.ds.Len() }

// Forget drops the given rows from the local dataset and resets the
// optimizer state (and the Fisher estimate), turning the next rounds into a
// from-scratch retrain over the remaining data. Rows index the ORIGINAL
// dataset the trainer was built over, however many requests came before;
// a rejected request changes nothing.
func (p *PlainTrainer) Forget(rows []int) error {
	if err := checkForget(p.id, p.orig, p.removed, rows); err != nil {
		return err
	}
	p.removed = append(p.removed, rows...)
	p.ds = p.orig.Remove(p.removed)
	return p.Reset()
}

// checkForget validates one deletion request against a trainer's original
// dataset and the rows it has already forgotten: every row in range, not
// removed before, listed once, and something left to train on afterwards.
func checkForget(id int, orig *data.Dataset, removed, rows []int) error {
	if len(rows) == 0 {
		return fmt.Errorf("baselines: client %d: empty deletion request", id)
	}
	gone := make(map[int]bool, len(removed)+len(rows))
	for _, r := range removed {
		gone[r] = true
	}
	for _, r := range rows {
		if r < 0 || r >= orig.Len() {
			return fmt.Errorf("baselines: client %d: row %d out of range [0,%d)", id, r, orig.Len())
		}
		if gone[r] {
			// Were a repeat let through, B3 would copy the row into Df twice
			// and weight it double.
			return fmt.Errorf("baselines: client %d: row %d already removed or listed twice", id, r)
		}
		gone[r] = true
	}
	if len(gone) >= orig.Len() {
		return fmt.Errorf("baselines: client %d has no data after removal", id)
	}
	return nil
}

// Reset discards the optimizer's momentum and the running Fisher estimate —
// state accumulated around the pre-deletion model that a from-scratch
// retrain must not inherit.
func (p *PlainTrainer) Reset() error {
	sgd, err := optim.NewSGD(p.sc.Opt)
	if err != nil {
		return fmt.Errorf("baselines: %w", err)
	}
	p.opt = sgd
	if p.precond {
		p.opt = &fisherStep{sgd: sgd, fim: make([]float64, p.net.NumParams())}
	}
	return nil
}

// fisherStep is the B2 update rule: it rescales each gradient by the inverse
// root of a running diagonal Fisher estimate before the wrapped SGD steps —
// Liu et al.'s curvature-guided fast recovery in first-order form.
type fisherStep struct {
	sgd *optim.SGD
	fim []float64 // EMA of squared gradients (diagonal FIM estimate)
}

// Step implements core.Stepper.
func (f *fisherStep) Step(params []*nn.Param) {
	const (
		decay = 0.9
		eps   = 1e-4
	)
	off := 0
	for _, pr := range params {
		g := pr.G.Data()
		for j := range g {
			v := decay*f.fim[off] + (1-decay)*g[j]*g[j]
			f.fim[off] = v
			g[j] /= math.Sqrt(v) + eps
			off++
		}
	}
	f.sgd.Step(params)
}

// TrainRound implements fed.LocalTrainer.
func (p *PlainTrainer) TrainRound(ctx context.Context, round int, global []float64) (fed.ModelUpdate, error) {
	if err := p.net.SetStateVector(global); err != nil {
		return fed.ModelUpdate{}, fmt.Errorf("baselines: client %d: %w", p.id, err)
	}
	idx := make([]int, p.ds.Len())
	for i := range idx {
		idx[i] = i
	}
	gl := loss.Goldfish{Hard: loss.CrossEntropy{}, ForgetScale: 1}
	last, _, err := core.TrainLocal(ctx, p.net, nil, p.ds, idx, nil, gl, p.opt,
		p.sc.BatchSize, p.sc.LocalEpochs, nil, p.rng)
	if err != nil {
		return fed.ModelUpdate{}, err
	}
	return fed.ModelUpdate{
		ClientID:   p.id,
		Round:      round,
		Params:     p.net.StateVector(),
		NumSamples: p.ds.Len(),
		TrainLoss:  last.HardLoss,
	}, nil
}

// ReinitVector builds the freshly initialized global model a from-scratch
// retrain starts at.
func ReinitVector(sc Scenario, seedBump int64) ([]float64, error) {
	mcfg := sc.Model
	mcfg.Seed = sc.Seed + 4242 + seedBump // fresh initialization: this is a retrain
	initNet, err := model.Build(mcfg)
	if err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	return initNet.StateVector(), nil
}

// IncompetentTrainer is the B3 client (Chundawat et al.): it distills from
// the competent (pre-deletion) teacher on its remaining data and from an
// incompetent random teacher on its removed data. Before any deletion it
// trains normally on hard loss. It implements fed.LocalTrainer.
type IncompetentTrainer struct {
	id          int
	sc          Scenario
	temp        float64
	orig        *data.Dataset // the dataset as handed to the constructor; Forget rows index it
	removed     []int         // original rows forgotten so far
	dr          *data.Dataset // retain view: orig without removed, rebuilt by Forget
	df          *data.Dataset // forget set, in request order
	net         *nn.Network
	competent   *nn.Network
	incompetent *nn.Network
	opt         *optim.SGD
	rng         *rand.Rand
}

var _ fed.LocalTrainer = (*IncompetentTrainer)(nil)

// NewIncompetentTrainer builds a B3 client over its local dataset. The
// teachers are created when Forget is called.
func NewIncompetentTrainer(id int, sc Scenario, ds *data.Dataset, temp float64) (*IncompetentTrainer, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if temp <= 0 {
		return nil, fmt.Errorf("baselines: distillation temperature must be positive, got %g", temp)
	}
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("baselines: client %d has no data", id)
	}
	mcfg := sc.Model
	mcfg.Seed = sc.Model.Seed + int64(id)*881 + 3
	student, err := model.Build(mcfg)
	if err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	opt, err := optim.NewSGD(sc.Opt)
	if err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	return &IncompetentTrainer{
		id:   id,
		sc:   sc,
		temp: temp,
		orig: ds,
		dr:   ds,
		net:  student,
		opt:  opt,
		rng:  rand.New(rand.NewSource(sc.Seed*3181 + int64(id))),
	}, nil
}

// NumSamples returns the client's remaining local dataset size.
func (t *IncompetentTrainer) NumSamples() int { return t.dr.Len() }

// Forget turns this client into the unlearning party: rows — indices into
// the ORIGINAL dataset the trainer was built over — are split out as the
// forget set Df, the contaminated global model becomes the competent
// teacher, and a freshly initialized network of the same architecture the
// incompetent one. A rejected request changes nothing.
func (t *IncompetentTrainer) Forget(rows []int, contaminated []float64) error {
	if len(contaminated) == 0 {
		return fmt.Errorf("baselines: B3 needs the contaminated global model")
	}
	if err := checkForget(t.id, t.orig, t.removed, rows); err != nil {
		return err
	}
	mcfg := t.sc.Model
	mcfg.Seed = t.sc.Model.Seed + int64(t.id)*881 + 3
	competent, err := model.Build(mcfg)
	if err != nil {
		return fmt.Errorf("baselines: %w", err)
	}
	if err := competent.SetStateVector(contaminated); err != nil {
		return fmt.Errorf("baselines: loading competent teacher: %w", err)
	}
	mcfg.Seed = t.sc.Seed + int64(t.id)*6151 + 99 // random incompetent teacher
	incompetent, err := model.Build(mcfg)
	if err != nil {
		return fmt.Errorf("baselines: %w", err)
	}
	df := t.orig.Subset(rows)
	if t.df != nil {
		if df, err = t.df.Concat(df); err != nil {
			return fmt.Errorf("baselines: client %d: merging deletion requests: %w", t.id, err)
		}
	}
	t.removed = append(t.removed, rows...)
	t.dr, t.df = t.orig.Remove(t.removed), df
	t.competent, t.incompetent = competent, incompetent
	return nil
}

// TrainRound implements fed.LocalTrainer.
func (t *IncompetentTrainer) TrainRound(ctx context.Context, round int, global []float64) (fed.ModelUpdate, error) {
	if err := t.net.SetStateVector(global); err != nil {
		return fed.ModelUpdate{}, fmt.Errorf("baselines: client %d: %w", t.id, err)
	}
	params := t.net.Params()
	unlearning := t.df != nil && t.df.Len() > 0 && t.competent != nil
	var lastLoss float64
	// One batch tensor for the round, as in core.TrainEpoch: a batch is
	// overwritten only after the Backward that reads it has returned, and
	// the teachers only read it.
	var x *tensor.Tensor
	for e := 0; e < t.sc.LocalEpochs; e++ {
		if err := ctx.Err(); err != nil {
			return fed.ModelUpdate{}, err
		}
		lastLoss = 0
		batches := data.BatchIndices(t.dr.Len(), t.sc.BatchSize, t.rng)
		for _, b := range batches {
			x = tensor.SliceRowsInto(x, t.dr.X, b)
			logits := t.net.Forward(x, true)
			var l float64
			var grad *tensor.Tensor
			if unlearning {
				// Chundawat et al.: the unlearning party distills the
				// competent teacher on its remaining data.
				tLogits := t.competent.Forward(x, false)
				l, grad = loss.Distillation(logits, tLogits, t.temp)
			} else {
				// Clients without removals train normally; distilling them
				// from the contaminated teacher would keep re-teaching the
				// very behaviour being unlearned.
				l, grad = (loss.CrossEntropy{}).Compute(logits, t.dr.LabelsFor(b))
			}
			t.net.ZeroGrads()
			t.net.BackwardParams(grad)
			t.opt.Step(params)
			lastLoss += l
		}
		if len(batches) > 0 {
			lastLoss /= float64(len(batches))
		}
		if unlearning {
			// |Df| ≪ |Dr|, and in a federation only this client pushes
			// against the backdoor while every client's retain distillation
			// pulls towards the contaminated teacher. Repeat the forget
			// passes and distill sharply (T=1) so bad teaching wins.
			const forgetPasses = 3
			for pass := 0; pass < forgetPasses; pass++ {
				for _, b := range data.BatchIndices(t.df.Len(), t.sc.BatchSize, t.rng) {
					x = tensor.SliceRowsInto(x, t.df.X, b)
					logits := t.net.Forward(x, true)
					badLogits := t.incompetent.Forward(x, false)
					_, grad := loss.Distillation(logits, badLogits, 1)
					t.net.ZeroGrads()
					t.net.BackwardParams(grad)
					t.opt.Step(params)
				}
			}
		}
	}
	return fed.ModelUpdate{
		ClientID:   t.id,
		Round:      round,
		Params:     t.net.StateVector(),
		NumSamples: t.dr.Len(),
		TrainLoss:  lastLoss,
	}, nil
}
