package core

import (
	"context"
	"math/rand"
	"slices"

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
// incompetent forget step. TrainEpoch forwards teacher over the remaining
// rows once, before the first step, as Client does once per round.
func TrainEpoch(ctx context.Context, student, teacher *nn.Network, ds *data.Dataset, drIdx []int,
	df *data.Dataset, gl loss.Goldfish, opt Stepper, batchSize int, rng *rand.Rand) (EpochResult, error) {
	e := &epoch{student: student, teacher: teacher, ds: ds, drIdx: drIdx, df: df, gl: gl,
		opt: opt, batchSize: batchSize, rng: rng, buffers: new(buffers)}
	if _, err := e.forwardTeachers(ctx, nil); err != nil {
		return EpochResult{}, err
	}
	return e.run(ctx)
}

// epoch is one round's local epochs: TrainEpoch's arguments plus B3's two
// branches. kdOnly makes the retain loss distillation from teacher alone,
// when one is set; incompetent, when set, replaces Goldfish's forget step
// with incompetentPasses passes of T = 1 distillation from it.
//
// Both teachers are frozen for the round, so run never forwards them:
// forwardTeachers computes their logits once, and each batch gathers its
// rows from those. An evaluation-mode forward of a row does not depend on
// the other rows in its batch, so the gathered logits are the bits a
// per-batch forward gives.
type epoch struct {
	student, teacher, incompetent *nn.Network
	ds, df                        *data.Dataset
	drIdx                         []int
	gl                            loss.Goldfish
	kdOnly                        bool
	opt                           Stepper
	batchSize                     int
	rng                           *rand.Rand
	*buffers
}

// buffers are an epoch's reusable tensors and lists. A client round takes
// them from the network set it borrows, so they keep their capacity from one
// round to the next; every one is written before it is read.
type buffers struct {
	// teacherLogits holds teacher's logits of ds row drIdx[i] in row i, and
	// incompetentLogits incompetent's of df row i. run reads each only in a
	// round whose forwardTeachers filled it.
	teacherLogits, incompetentLogits *tensor.Tensor
	// One batch tensor, one gathered-logits tensor, one row list and one
	// label list for every pass of the round: a batch is overwritten only
	// after the Backward that reads it has returned (the Layer
	// input-lifetime rule).
	x, tx  *tensor.Tensor
	rows   []int
	labels []int
}

// distils reports whether run reads the retain teacher.
func (e *epoch) distils() bool {
	return e.teacher != nil && (e.kdOnly || e.gl.MuD > 0)
}

// forgets reports whether run takes forget steps over df.
func (e *epoch) forgets() bool { return e.df != nil && e.df.Len() > 0 }

// forwardTeachers fills the logits caches of every teacher run reads. With
// ref set, it forwards the retain teacher even where run does not read it
// and returns the Eq. 7 reference L(ω^{t−1}): the teacher's mean ref loss
// over the remaining rows (0 when there are none).
func (e *epoch) forwardTeachers(ctx context.Context, ref loss.Hard) (float64, error) {
	var refLoss float64
	if e.teacher != nil && len(e.drIdx) > 0 && (ref != nil || e.distils()) {
		var keep **tensor.Tensor
		if e.distils() {
			keep = &e.teacherLogits
		}
		var err error
		if refLoss, err = e.forward(ctx, keep, e.teacher, e.ds, e.drIdx, ref); err != nil {
			return 0, err
		}
	}
	if e.incompetent != nil && e.forgets() {
		if _, err := e.forward(ctx, &e.incompetentLogits, e.incompetent, e.df, nil, nil); err != nil {
			return 0, err
		}
	}
	return refLoss, nil
}

// forward forwards net in evaluation mode over the rows idx of ds (every
// row when idx is nil; there must be at least one), batchSize rows at a
// time, in order. With keep set it stores the logits in *keep (resized; nil
// allocates), row i for idx[i]. With h set it returns the rows' mean h loss,
// summed batch by batch as each batch's mean times its size.
func (e *epoch) forward(ctx context.Context, keep **tensor.Tensor, net *nn.Network, ds *data.Dataset,
	idx []int, h loss.Hard) (float64, error) {
	n := len(idx)
	if idx == nil {
		n = ds.Len()
	}
	var total float64
	e.rows = slices.Grow(e.rows[:0], min(e.batchSize, n))
	for start := 0; start < n; start += e.batchSize {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		end := min(start+e.batchSize, n)
		e.rows = e.rows[:0]
		for i := start; i < end; i++ {
			if idx != nil {
				e.rows = append(e.rows, idx[i])
			} else {
				e.rows = append(e.rows, i)
			}
		}
		e.x = tensor.SliceRowsInto(e.x, ds.X, e.rows)
		logits := net.Forward(e.x, false)
		if keep != nil {
			classes := logits.Dim(1)
			if start == 0 {
				*keep = tensor.EnsureShape(*keep, n, classes)
			}
			copy((*keep).Data()[start*classes:end*classes], logits.Data())
		}
		if h != nil {
			l, _ := h.Compute(logits, e.labelsFor(ds, e.rows))
			total += l * float64(end-start)
		}
	}
	return total / float64(n), nil
}

// labelsFor is ds.LabelsFor(rows) in e's label buffer.
func (e *epoch) labelsFor(ds *data.Dataset, rows []int) []int {
	e.labels = slices.Grow(e.labels[:0], len(rows))
	for _, r := range rows {
		e.labels = append(e.labels, ds.Y[r])
	}
	return e.labels
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

	distils := e.distils()
	batches := data.BatchIndices(len(e.drIdx), e.batchSize, e.rng)
	e.rows = slices.Grow(e.rows[:0], min(e.batchSize, len(e.drIdx)))
	for _, b := range batches {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		e.rows = e.rows[:0]
		for _, j := range b {
			e.rows = append(e.rows, e.drIdx[j])
		}
		e.x = tensor.SliceRowsInto(e.x, e.ds.X, e.rows)

		logits := e.student.Forward(e.x, true)
		var hardLoss, total float64
		var grad *tensor.Tensor
		if distils {
			// Row j of the cache is ds row drIdx[j], so b gathers the batch.
			e.tx = tensor.SliceRowsInto(e.tx, e.teacherLogits, b)
		}
		if e.kdOnly && e.teacher != nil {
			total, grad = loss.Distillation(logits, e.tx, e.gl.Temp)
		} else {
			hardLoss, grad = e.gl.Hard.Compute(logits, e.labelsFor(e.ds, e.rows))
			total = hardLoss
			if distils {
				ld, gd := loss.Distillation(logits, e.tx, e.gl.Temp)
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

	if !e.forgets() {
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
			e.x = tensor.SliceRowsInto(e.x, e.df.X, b)
			logits := e.student.Forward(e.x, true)
			var grad *tensor.Tensor
			if e.incompetent != nil {
				e.tx = tensor.SliceRowsInto(e.tx, e.incompetentLogits, b)
				_, grad = loss.Distillation(logits, e.tx, 1)
			} else {
				_, grad = e.gl.ForgetStep(logits, e.labelsFor(e.df, b))
			}
			step(grad)
		}
	}
	return res, nil
}
