package core

import (
	"context"

	"goldfish/internal/data"
	"goldfish/internal/loss"
	"goldfish/internal/nn"
	"goldfish/internal/tensor"
)

// TeacherCaches runs a round's teacher pass, as TrainRound starts it, for
// a B3-shaped epoch: teacher over rows drIdx of ds and incompetent over
// every row of df, batchSize rows at a time. It returns both logits caches
// and, with ref set, the Eq. 7 reference.
func TeacherCaches(teacher, incompetent *nn.Network, ds *data.Dataset, drIdx []int, df *data.Dataset,
	ref loss.Hard, batchSize int) (teacherLogits, incompetentLogits *tensor.Tensor, refLoss float64, err error) {
	e := &epoch{teacher: teacher, incompetent: incompetent, kdOnly: true, ds: ds, drIdx: drIdx, df: df,
		batchSize: batchSize, buffers: new(buffers)}
	refLoss, err = e.forwardTeachers(context.Background(), ref)
	return e.teacherLogits, e.incompetentLogits, refLoss, err
}

// The fixtures of the internal tests, for the external ones.
var (
	TinyMNIST  = tinyMNIST
	TestConfig = testConfig
)
