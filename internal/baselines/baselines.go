// Package baselines builds B1/B2 clients from the setup the paper's
// comparison systems share (§IV-A "Baselines"). The baselines themselves
// are core procedures run by core.Client: B1 retrains from scratch
// (core.Retrain), B2 retrains with diagonal-Fisher preconditioning
// (core.Fisher) and B3 is the incompetent teacher (core.IncompetentTeacher).
// B1 with no removals doubles as the "origin" model.
package baselines

import (
	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/loss"
	"goldfish/internal/model"
	"goldfish/internal/optim"
)

// Scenario bundles the training setup shared by all baselines: the
// core.Config fields they read.
type Scenario struct {
	Model       model.Config
	Opt         optim.SGDConfig
	LocalEpochs int
	BatchSize   int
	Seed        int64
}

// NewPlainTrainer builds a B1 client over its local dataset, or a B2 one
// with precond set.
func NewPlainTrainer(id int, sc Scenario, ds *data.Dataset, precond bool) (*core.Client, error) {
	p := core.Retrain
	if precond {
		p = core.Fisher
	}
	return p.NewClient(id, core.Config{Model: sc.Model, Loss: loss.NewGoldfish(), Opt: sc.Opt,
		LocalEpochs: sc.LocalEpochs, BatchSize: sc.BatchSize, Seed: sc.Seed}, ds)
}
