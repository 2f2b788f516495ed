package bench

import (
	"context"
	"fmt"

	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/loss"
	"goldfish/internal/model"
	"goldfish/internal/unlearn"
)

// lossVariant is one column of Table X / Table XI.
type lossVariant struct {
	name   string
	modify func(*core.Config)
}

// runLossVariants trains the poisoned origin once per variant, submits the
// deletion, and records accuracy and backdoor ASR at every unlearning-round
// checkpoint. It reproduces the Table X / XI protocol (CIFAR-10 + ResNet-32,
// 10% poisoning of client 0).
func runLossVariants(opts Options, variants []lossVariant, title string) (*Report, error) {
	opts = opts.withDefaults()
	s, err := newSetup("cifar10", model.ArchResNet32, opts)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	// Checkpoints mirror the paper's epoch grid {10,20,30,40}, scaled to the
	// available unlearning-round budget.
	checkpoints := []int{
		s.rounds / 4, s.rounds / 2, 3 * s.rounds / 4, s.rounds,
	}
	for i, c := range checkpoints {
		if c < 1 {
			checkpoints[i] = 1
		}
	}

	type cell struct{ acc, asr float64 }
	results := make([][]cell, len(variants)) // [variant][checkpoint]

	for vi, v := range variants {
		parts, err := s.partitionIID()
		if err != nil {
			return nil, err
		}
		bd := data.DefaultBackdoor()
		poisoned, err := s.poisonClient0(parts, bd, 10)
		if err != nil {
			return nil, err
		}
		triggered, err := bd.TriggerCopy(s.test)
		if err != nil {
			return nil, err
		}

		cfg := s.clientConfig()
		v.modify(&cfg)
		f, err := unlearn.NewFederation(unlearn.Config{Client: cfg}, parts)
		if err != nil {
			return nil, err
		}
		if err := f.Run(ctx, s.rounds, nil); err != nil {
			return nil, err
		}
		if err := f.RequestDeletion(0, poisoned); err != nil {
			return nil, err
		}

		cells := make([]cell, 0, len(checkpoints))
		var roundErr error
		round := 0
		if err := f.Run(ctx, s.rounds, func(rs unlearn.RoundStats) {
			round++
			for _, cp := range checkpoints {
				if cp == round {
					acc, aerr := s.accuracy(rs.Global)
					if aerr != nil {
						roundErr = aerr
						return
					}
					asr, aerr := s.asr(rs.Global, triggered, bd.TargetLabel)
					if aerr != nil {
						roundErr = aerr
						return
					}
					cells = append(cells, cell{acc: acc, asr: asr})
					break
				}
			}
		}); err != nil {
			return nil, err
		}
		if roundErr != nil {
			return nil, roundErr
		}
		results[vi] = cells
	}

	tbl := Table{Title: title, Columns: []string{"Round", "Metric"}}
	for _, v := range variants {
		tbl.Columns = append(tbl.Columns, v.name)
	}
	for ci, cp := range checkpoints {
		accRow := []string{fmt.Sprintf("%d", cp), "acc"}
		asrRow := []string{"", "backdoor"}
		for vi := range variants {
			if ci < len(results[vi]) {
				accRow = append(accRow, pct(results[vi][ci].acc))
				asrRow = append(asrRow, pct(results[vi][ci].asr))
			} else {
				accRow = append(accRow, "-")
				asrRow = append(asrRow, "-")
			}
		}
		tbl.Rows = append(tbl.Rows, accRow, asrRow)
	}
	return &Report{ID: "ablation", Title: title, Tables: []Table{tbl}}, nil
}

// RunTable10 regenerates Table X: the loss-component ablation — hard loss
// only, without distillation loss, without confusion loss, and the total
// loss.
func RunTable10(opts Options) (*Report, error) {
	variants := []lossVariant{
		{"Hard loss only", func(c *core.Config) { c.Loss.MuC = 0; c.Loss.MuD = 0 }},
		{"w/o Distillation", func(c *core.Config) { c.Loss.MuD = 0 }},
		{"w/o Confusion", func(c *core.Config) { c.Loss.MuC = 0 }},
		{"Total loss", func(c *core.Config) {}},
	}
	return runLossVariants(opts, variants, "Ablation study of the loss-function components (Table X)")
}

// RunTable11 regenerates Table XI: the hard-loss compatibility study —
// cross-entropy (α), focal loss (β) and NLL (γ) as the hard-loss plug-in of
// the total objective.
func RunTable11(opts Options) (*Report, error) {
	variants := []lossVariant{
		{"Total loss α (CE)", func(c *core.Config) { c.Loss.Hard = loss.CrossEntropy{} }},
		{"Total loss β (Focal)", func(c *core.Config) { c.Loss.Hard = loss.Focal{Gamma: 2} }},
		{"Total loss γ (NLL)", func(c *core.Config) { c.Loss.Hard = loss.NLL{} }},
	}
	return runLossVariants(opts, variants, "Compatibility study of different hard losses (Table XI)")
}

// RunAblateEarly measures this reproduction's early-termination mechanism:
// local epochs actually run and final accuracy with δ disabled versus
// enabled.
func RunAblateEarly(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	s, err := newSetup("mnist", model.ArchLeNet5, opts)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	tbl := Table{
		Title:   "Early-termination ablation: epochs used and accuracy",
		Columns: []string{"delta", "total local epochs", "final acc (%)"},
	}
	for _, delta := range []float64{0, 0.05, 0.2} {
		parts, err := s.partitionIID()
		if err != nil {
			return nil, err
		}
		cfg := s.clientConfig()
		cfg.LocalEpochs = 4
		cfg.EarlyDelta = delta
		f, err := unlearn.NewFederation(unlearn.Config{Client: cfg}, parts)
		if err != nil {
			return nil, err
		}
		totalEpochs := 0
		if err := f.Run(ctx, s.rounds, func(unlearn.RoundStats) {
			for i := 0; i < f.NumClients(); i++ {
				totalEpochs += f.Client(i).LastEpochs()
			}
		}); err != nil {
			return nil, err
		}
		acc, err := s.accuracy(f.Global())
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%g", delta),
			fmt.Sprintf("%d", totalEpochs),
			pct(acc),
		})
	}
	return &Report{ID: "ablate-early", Title: tbl.Title, Tables: []Table{tbl}}, nil
}

// RunAblateTemp compares fixed versus adaptive distillation temperature
// (Eq. 11) on the backdoor-unlearning pipeline.
func RunAblateTemp(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	s, err := newSetup("mnist", model.ArchLeNet5, opts)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	tbl := Table{
		Title:   "Adaptive-temperature ablation (Eq. 11)",
		Columns: []string{"temperature", "acc (%)", "backdoor (%)"},
	}
	for _, adaptive := range []bool{false, true} {
		parts, err := s.partitionIID()
		if err != nil {
			return nil, err
		}
		bd := data.DefaultBackdoor()
		poisoned, err := s.poisonClient0(parts, bd, 10)
		if err != nil {
			return nil, err
		}
		triggered, err := bd.TriggerCopy(s.test)
		if err != nil {
			return nil, err
		}
		cfg := s.clientConfig()
		cfg.AdaptiveTemp = adaptive
		f, err := unlearn.NewFederation(unlearn.Config{Client: cfg}, parts)
		if err != nil {
			return nil, err
		}
		if err := f.Run(ctx, s.rounds, nil); err != nil {
			return nil, err
		}
		if err := f.RequestDeletion(0, poisoned); err != nil {
			return nil, err
		}
		if err := f.Run(ctx, s.rounds, nil); err != nil {
			return nil, err
		}
		acc, err := s.accuracy(f.Global())
		if err != nil {
			return nil, err
		}
		asr, err := s.asr(f.Global(), triggered, bd.TargetLabel)
		if err != nil {
			return nil, err
		}
		name := "fixed T=3"
		if adaptive {
			name = "adaptive (Eq. 11)"
		}
		tbl.Rows = append(tbl.Rows, []string{name, pct(acc), pct(asr)})
	}
	return &Report{ID: "ablate-temp", Title: tbl.Title, Tables: []Table{tbl}}, nil
}
