package core

import (
	"math"

	"goldfish/internal/loss"
	"goldfish/internal/nn"
	"goldfish/internal/optim"
)

// Teacher is where a procedure's retain teacher comes from.
type Teacher int

const (
	// NoTeacher trains on the hard loss alone.
	NoTeacher Teacher = iota
	// PreviousGlobal: the client's previous-round global model teaches in
	// the round after a deletion (Algorithm 1). Early termination (Eq. 7)
	// and the adaptive temperature (Eq. 11) apply only under it.
	PreviousGlobal
	// FrozenGlobal: the global model current at the client's own deletion
	// teaches in every later round, and Df stays with it (B3).
	FrozenGlobal
)

// Forget is the step on the removed rows, after each epoch's retain steps.
type Forget int

const (
	// NoForget never trains on the removed rows again.
	NoForget Forget = iota
	// ConfuseAscend is Goldfish's loss.Goldfish.ForgetStep: hard-loss
	// ascent plus the confusion loss.
	ConfuseAscend
	// Incompetent is B3's step: incompetentPasses passes of T = 1
	// distillation from a randomly initialized network. |Df| ≪ |Dr|, and
	// only the deleting client pushes against the removed behaviour while
	// every retain step pulls towards it, so bad teaching is repeated and
	// sharp.
	Incompetent
)

const incompetentPasses = 3

// Lifetime is how long one optimizer, with its momentum and Fisher
// estimate, lives.
type Lifetime int

const (
	PerRound Lifetime = iota
	// UntilDeletion ends at any deletion in the federation: a from-scratch
	// retrain must not inherit state built around the pre-deletion model.
	UntilDeletion
	WholeClient
)

// Procedure says how a Client trains: the paper's procedure and its three
// baselines are the same client loop with different values here. What a
// procedure does when another participant deletes data follows from it:
// a PreviousGlobal teacher distils the next round (Algorithm 1 line 15), an
// UntilDeletion optimizer is dropped, and nothing else changes.
type Procedure struct {
	// Teacher is where the retain teacher comes from.
	Teacher Teacher
	// KDOnly makes the retain loss distillation from the teacher alone,
	// without the hard loss, in the rounds a teacher is set.
	KDOnly bool
	// Forget is the step on the removed rows.
	Forget Forget
	// Fisher wraps SGD in the diagonal-Fisher preconditioner (B2).
	Fisher bool
	// Optimizer is the optimizer's lifetime.
	Optimizer Lifetime
	// Hard, when set, replaces Config.Loss.Hard.
	Hard loss.Hard
	// SeedMul seeds the batch order: the client's RNG starts at
	// Config.Seed·SeedMul + id.
	SeedMul int64
	// ReinitSeed returns the model seed of the k-th freshly initialized
	// global model (k = 1, 2, …) a deletion restarts training from; nil
	// keeps the current global model on a deletion.
	ReinitSeed func(cfg Config, k int64) int64
}

var (
	// Goldfish is the paper's procedure (Algorithm 1): after a deletion the
	// deleting client unlearns with distillation from the previous global
	// model and forget steps on Df, every other client rebuilds by
	// distillation, and training restarts from a fresh global model.
	Goldfish = Procedure{
		Teacher:    PreviousGlobal,
		Forget:     ConfuseAscend,
		SeedMul:    100003,
		ReinitSeed: func(c Config, k int64) int64 { return c.Model.Seed + 7919*k },
	}
	// Retrain is B1: drop the rows, reset every optimizer and restart from a
	// fresh global model on hard loss — the reference unlearning procedure.
	Retrain = Procedure{
		Optimizer:  UntilDeletion,
		Hard:       loss.CrossEntropy{},
		SeedMul:    7907,
		ReinitSeed: func(c Config, k int64) int64 { return c.Seed + 4242 + 7919*k },
	}
	// Fisher is B2: Retrain with steps preconditioned by a running diagonal
	// Fisher-information estimate (Liu et al.), which speeds the recovery.
	Fisher = Procedure{
		Fisher:     true,
		Optimizer:  UntilDeletion,
		Hard:       loss.CrossEntropy{},
		SeedMul:    7907,
		ReinitSeed: Retrain.ReinitSeed,
	}
	// IncompetentTeacher is B3 (Chundawat et al.): the global model stays;
	// the deleting client distils it, frozen at the deletion, on its
	// remaining rows and a random incompetent network on the removed ones,
	// while every other client keeps training on hard loss.
	IncompetentTeacher = Procedure{
		Teacher:   FrozenGlobal,
		KDOnly:    true,
		Forget:    Incompetent,
		Optimizer: WholeClient,
		Hard:      loss.CrossEntropy{},
		SeedMul:   3181,
	}
)

// newStepper builds the procedure's optimizer for net.
func (p Procedure) newStepper(cfg optim.SGDConfig, net *nn.Network) (Stepper, error) {
	sgd, err := optim.NewSGD(cfg)
	if err != nil {
		return nil, err
	}
	if !p.Fisher {
		return sgd, nil
	}
	return &fisherStep{sgd: sgd, fim: make([]float64, net.NumParams())}, nil
}

// fisherStep is the B2 update rule: it rescales each gradient by the inverse
// root of a running diagonal Fisher estimate before the wrapped SGD steps —
// Liu et al.'s curvature-guided fast recovery in first-order form.
type fisherStep struct {
	sgd *optim.SGD
	fim []float64 // EMA of squared gradients (diagonal FIM estimate)
}

// Step implements Stepper.
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
