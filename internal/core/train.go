package core

import (
	"context"
	"math/rand"

	"goldfish/internal/data"
	"goldfish/internal/loss"
	"goldfish/internal/nn"
	"goldfish/internal/optim"
	"goldfish/internal/tensor"
)

// Stepper applies one optimizer update to params from their accumulated
// gradients. *optim.SGD is the stepper of Goldfish and B1; B2 wraps it in a
// Fisher preconditioner that rescales the gradients first.
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
// teacher == nil, df == nil). Baselines reuse it with their own settings.
func TrainEpoch(ctx context.Context, student, teacher *nn.Network, ds *data.Dataset, drIdx []int,
	df *data.Dataset, gl loss.Goldfish, opt Stepper, batchSize int, rng *rand.Rand) (EpochResult, error) {

	var res EpochResult
	params := student.Params()

	// One batch tensor and one row list for the whole epoch: a batch is
	// overwritten only after the Backward that reads it has returned (the
	// Layer input-lifetime rule), and the teacher only reads it.
	var x *tensor.Tensor
	batches := data.BatchIndices(len(drIdx), batchSize, rng)
	rows := make([]int, min(max(batchSize, 0), len(drIdx)))
	for _, b := range batches {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		rows = rows[:len(b)]
		for i, j := range b {
			rows[i] = drIdx[j]
		}
		x = tensor.SliceRowsInto(x, ds.X, rows)
		labels := ds.LabelsFor(rows)

		logits := student.Forward(x, true)
		hardLoss, grad := gl.Hard.Compute(logits, labels)
		total := hardLoss
		if teacher != nil && gl.MuD > 0 {
			tLogits := teacher.Forward(x, false)
			ld, gd := loss.Distillation(logits, tLogits, gl.Temp)
			total += gl.MuD * ld
			grad.AXPY(gl.MuD, gd)
		}
		student.ZeroGrads()
		student.BackwardParams(grad)
		opt.Step(params)

		res.HardLoss += hardLoss
		res.TotalLoss += total
	}
	if len(batches) > 0 {
		res.HardLoss /= float64(len(batches))
		res.TotalLoss /= float64(len(batches))
	}

	if df != nil && df.Len() > 0 {
		fBatches := data.BatchIndices(df.Len(), batchSize, rng)
		for _, b := range fBatches {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			x = tensor.SliceRowsInto(x, df.X, b)
			labels := df.LabelsFor(b)
			logits := student.Forward(x, true)
			_, grad := gl.ForgetStep(logits, labels)
			student.ZeroGrads()
			student.BackwardParams(grad)
			opt.Step(params)
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

// TrainLocal runs up to maxEpochs epochs of TrainEpoch with optional early
// termination (stopper may be nil). It returns the last epoch's result and
// the number of epochs actually run.
func TrainLocal(ctx context.Context, student, teacher *nn.Network, ds *data.Dataset, drIdx []int,
	df *data.Dataset, gl loss.Goldfish, opt Stepper, batchSize, maxEpochs int,
	stopper *optim.EarlyStopper, rng *rand.Rand) (EpochResult, int, error) {

	var last EpochResult
	epochs := 0
	for e := 0; e < maxEpochs; e++ {
		res, err := TrainEpoch(ctx, student, teacher, ds, drIdx, df, gl, opt, batchSize, rng)
		if err != nil {
			return last, epochs, err
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
	return last, epochs, nil
}
