package core

import (
	"context"
	"math/rand"

	"goldfish/internal/data"
	"goldfish/internal/loss"
	"goldfish/internal/nn"
	"goldfish/internal/tensor"
)

// Stepper applies one optimizer update to params from their accumulated
// gradients. *optim.SGD is the stepper of every procedure but B2, which
// wraps it in a Fisher preconditioner that rescales the gradients first.
type Stepper interface {
	Step(params []*nn.Param)
}

// EpochResult reports one local epoch of Goldfish training.
type EpochResult struct {
	// HardLoss is the mean hard-loss component over remaining-data batches,
	// the quantity the early-termination rule (Eq. 7) compares.
	HardLoss float64
	// TotalLoss is the mean full objective over remaining-data batches.
	TotalLoss float64
}

// TrainEpoch runs one epoch of the Goldfish local procedure on student:
// retain steps over the remaining rows (drIdx into ds) with optional
// distillation from teacher, followed by forget steps over df (may be nil
// or empty). It returns the epoch's mean losses.
//
// This is the inner loop of both the Goldfish procedure and the
// LocalTraining procedure of Algorithm 1 (the latter is the special case
// teacher == nil, df == nil). Client runs every Procedure through the same
// loop, which also holds B3's distillation-only retain loss and its
// incompetent forget step.
func TrainEpoch(ctx context.Context, student, teacher *nn.Network, ds *data.Dataset, drIdx []int,
	df *data.Dataset, gl loss.Goldfish, opt Stepper, batchSize int, rng *rand.Rand) (EpochResult, error) {
	return (&epoch{student: student, teacher: teacher, ds: ds, drIdx: drIdx, df: df, gl: gl,
		opt: opt, batchSize: batchSize, rng: rng}).run(ctx)
}

// epoch is one local epoch's setup: TrainEpoch's arguments plus B3's two
// branches. kdOnly makes the retain loss distillation from teacher alone,
// when one is set; incompetent, when set, replaces Goldfish's forget step
// with incompetentPasses passes of T = 1 distillation from it.
type epoch struct {
	student, teacher, incompetent *nn.Network
	ds, df                        *data.Dataset
	drIdx                         []int
	gl                            loss.Goldfish
	kdOnly                        bool
	opt                           Stepper
	batchSize                     int
	rng                           *rand.Rand
}

// run is the one epoch loop.
func (e *epoch) run(ctx context.Context) (EpochResult, error) {
	var res EpochResult
	params := e.student.Params()
	step := func(grad *tensor.Tensor) {
		e.student.ZeroGrads()
		e.student.BackwardParams(grad)
		e.opt.Step(params)
	}

	// One batch tensor and one row list for the whole epoch: a batch is
	// overwritten only after the Backward that reads it has returned (the
	// Layer input-lifetime rule), and the teachers only read it.
	var x *tensor.Tensor
	batches := data.BatchIndices(len(e.drIdx), e.batchSize, e.rng)
	rows := make([]int, min(max(e.batchSize, 0), len(e.drIdx)))
	for _, b := range batches {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		rows = rows[:len(b)]
		for i, j := range b {
			rows[i] = e.drIdx[j]
		}
		x = tensor.SliceRowsInto(x, e.ds.X, rows)

		logits := e.student.Forward(x, true)
		var hardLoss, total float64
		var grad *tensor.Tensor
		if e.kdOnly && e.teacher != nil {
			total, grad = loss.Distillation(logits, e.teacher.Forward(x, false), e.gl.Temp)
		} else {
			hardLoss, grad = e.gl.Hard.Compute(logits, e.ds.LabelsFor(rows))
			total = hardLoss
			if e.teacher != nil && e.gl.MuD > 0 {
				ld, gd := loss.Distillation(logits, e.teacher.Forward(x, false), e.gl.Temp)
				total += e.gl.MuD * ld
				grad.AXPY(e.gl.MuD, gd)
			}
		}
		step(grad)

		res.HardLoss += hardLoss
		res.TotalLoss += total
	}
	if len(batches) > 0 {
		res.HardLoss /= float64(len(batches))
		res.TotalLoss /= float64(len(batches))
	}

	if e.df == nil || e.df.Len() == 0 {
		return res, nil
	}
	passes := 1
	if e.incompetent != nil {
		passes = incompetentPasses
	}
	for range passes {
		for _, b := range data.BatchIndices(e.df.Len(), e.batchSize, e.rng) {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			x = tensor.SliceRowsInto(x, e.df.X, b)
			logits := e.student.Forward(x, true)
			var grad *tensor.Tensor
			if e.incompetent != nil {
				_, grad = loss.Distillation(logits, e.incompetent.Forward(x, false), 1)
			} else {
				_, grad = e.gl.ForgetStep(logits, e.df.LabelsFor(b))
			}
			step(grad)
		}
	}
	return res, nil
}

// EvalHardLoss evaluates the mean hard loss of net over the given dataset
// rows in evaluation mode — L(ω) as used by the early-termination reference
// of Eq. 7.
func EvalHardLoss(net *nn.Network, ds *data.Dataset, idx []int, h loss.Hard, batchSize int) float64 {
	if len(idx) == 0 {
		return 0
	}
	batches := data.BatchIndices(len(idx), batchSize, nil)
	var total float64
	var x *tensor.Tensor
	rows := make([]int, min(max(batchSize, 0), len(idx)))
	for _, b := range batches {
		rows = rows[:len(b)]
		for i, j := range b {
			rows[i] = idx[j]
		}
		x = tensor.SliceRowsInto(x, ds.X, rows)
		logits := net.Forward(x, false)
		l, _ := h.Compute(logits, ds.LabelsFor(rows))
		total += l * float64(len(b))
	}
	return total / float64(len(idx))
}
