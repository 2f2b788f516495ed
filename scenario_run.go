package goldfish

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"goldfish/internal/attack"
	"goldfish/internal/data"
	"goldfish/internal/metrics"
	"goldfish/internal/scenario"
	"goldfish/internal/tensor"
	"goldfish/internal/unlearn"
)

// Scenario types re-exported from the declarative experiment engine
// (internal/scenario): a ScenarioSpec describes a config-driven unlearning
// experiment matrix — dataset, partitioner, optional attack injection (one
// or several probe styles from the attack type table), a deletion schedule,
// and the strategy × seed × attack axes — and a ScenarioReport is
// its deterministic structured outcome.
type (
	// ScenarioSpec is a declarative unlearning experiment matrix.
	ScenarioSpec = scenario.Spec
	// ScenarioReport is the structured, deterministic outcome of RunScenario.
	ScenarioReport = scenario.Report
	// ScenarioCell identifies one matrix point (strategy × seed × attack).
	ScenarioCell = scenario.Cell
	// ScenarioDiff is the cell-by-cell comparison of two scenario reports.
	ScenarioDiff = scenario.DiffReport
	// ScenarioDiffOptions tunes DiffScenarioReports (significance level,
	// practical-delta floor).
	ScenarioDiffOptions = scenario.DiffOptions
)

// LoadScenario reads and validates a scenario spec file.
func LoadScenario(path string) (ScenarioSpec, error) { return scenario.Load(path) }

// ParseScenario decodes and validates a scenario spec from JSON bytes.
func ParseScenario(b []byte) (ScenarioSpec, error) { return scenario.Parse(b) }

// LoadScenarioReport reads a report file written by a scenario run — full,
// or the finished cells of an interrupted run.
func LoadScenarioReport(path string) (*ScenarioReport, error) { return scenario.LoadReport(path) }

// DiffScenarioReports compares two reports cell-by-cell: accuracy, attack
// success rate and membership-gap deltas over the matrix intersection, plus
// per-(strategy, attack, metric) Welch t-tests across the seed axis. A committed
// baseline report can thereby gate CI: ScenarioDiff.HasRegressions reports
// any statistically significant worsening or newly failing cell, and a
// report diffed against itself never regresses.
func DiffScenarioReports(oldR, newR *ScenarioReport, opts ScenarioDiffOptions) (*ScenarioDiff, error) {
	return scenario.Diff(oldR, newR, opts)
}

// ValidateScenario validates a spec beyond ScenarioSpec.Validate: it also
// looks up every strategy name, so a misspelled one fails before any cell
// trains, and resolves the preset, so a deletion schedule reaching past a preset-derived
// round budget, or an attack or schedule naming a client or class the
// federation will not have, is rejected up front instead of silently never
// executing (or failing every cell at run time).
func ValidateScenario(spec ScenarioSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	for _, name := range spec.Strategies {
		if _, err := unlearn.Procedure(name); err != nil {
			return err
		}
	}
	p, err := NewPresetWithArch(spec.Dataset, Arch(spec.Arch), Scale(spec.Scale), spec.SeedList()[0])
	if err != nil {
		// Unresolvable presets (unknown dataset/arch) surface as cell
		// errors with full context; don't duplicate that reporting here.
		return nil
	}
	rounds, clients := p.Rounds, p.Clients
	if spec.Rounds > 0 {
		rounds = spec.Rounds
	}
	if spec.Clients > 0 {
		clients = spec.Clients
	}
	classes := p.Spec.Classes
	if a := spec.Attack; a != nil {
		if a.Client >= clients {
			return fmt.Errorf("goldfish: attack client %d out of range [0,%d)", a.Client, clients)
		}
		if a.TargetLabel >= classes {
			return fmt.Errorf("goldfish: attack target label %d out of range [0,%d)", a.TargetLabel, classes)
		}
		for _, typ := range a.TypeList() {
			if typ == "targeted-class" && a.SourceClass >= classes {
				return fmt.Errorf("goldfish: attack source class %d out of range [0,%d)", a.SourceClass, classes)
			}
		}
	}
	for i, d := range spec.Schedule {
		if d.Round > rounds {
			return fmt.Errorf("goldfish: schedule[%d]: round %d beyond the preset's resolved budget of %d rounds",
				i, d.Round, rounds)
		}
		if d.Type == scenario.DeleteClass {
			if d.Class >= classes {
				return fmt.Errorf("goldfish: schedule[%d]: class %d out of range [0,%d)", i, d.Class, classes)
			}
			continue
		}
		if d.Client >= clients {
			return fmt.Errorf("goldfish: schedule[%d]: client %d out of range [0,%d)", i, d.Client, clients)
		}
		if d.Type == scenario.DeleteClient {
			// A departure shifts later positions down, as in runScenarioCell.
			clients--
		}
	}
	return nil
}

// RunScenario executes the spec's full strategy × seed × attack
// matrix concurrently on a bounded worker pool. Every cell runs end to end
// through goldfish.New and the named unlearning strategies: generate the
// preset's data at the cell seed, partition it, optionally inject the cell's
// attack probe (backdoor, label-flip or targeted-class), train with the
// scheduled sample-/class-/client-level deletion requests applied at their
// rounds, and evaluate the final model (accuracy, the attack type's own
// success-rate probe, membership gap, and model divergence plus confidence
// t-test against the "retrain" reference cell of the same seed and attack
// type when the strategy axis includes it). Each evaluation forwards the
// model once per probe set (test set, attack probe, forget set), and the
// retrain comparison reads the two cells' test-set probability rows.
//
// Cells sharing a seed see identical data and partitions (poisoning
// additionally depends on the cell's attack type), and every cell derives
// all randomness from spec constants, its seed and its attack type, so the
// report is deterministic: two runs of the same spec marshal to
// byte-identical JSON. A failing cell is recorded in its row's Error field
// rather than aborting the matrix; Report.Complete reports whether the full
// matrix succeeded.
// On ctx cancellation RunScenario returns BOTH a non-nil partial report —
// holding the cells that finished deterministically, marked Incomplete — and
// the context error, so an interrupted run's finished work can be kept.
// Running the spec again resumes it: the rerun reproduces every finished row
// byte for byte.
func RunScenario(ctx context.Context, spec ScenarioSpec) (*ScenarioReport, error) {
	if err := ValidateScenario(spec); err != nil {
		return nil, err
	}
	outcomes, execErr := scenario.Execute(ctx, spec, func(ctx context.Context, cell ScenarioCell) (scenario.Outcome, error) {
		return runScenarioCell(ctx, spec, cell)
	})
	if execErr != nil && outcomes == nil {
		return nil, execErr
	}
	rep, err := scenario.Assemble(spec, outcomes, compareScenarioCells)
	if err != nil {
		return nil, err
	}
	if execErr != nil && !rep.Incomplete {
		// Cancellation landed after every cell had already finished: the
		// report is exactly what an uninterrupted run would have produced,
		// so don't surface the interrupt.
		execErr = nil
	}
	return rep, execErr
}

// scenarioSetup materializes the seed- and attack-determined,
// strategy-independent part of a cell: preset, train/test data, partitions,
// the poisoned rows and the attack's success-rate probe (zero without an
// attack).
type scenarioSetup struct {
	preset   Preset
	test     *Dataset
	parts    []*Dataset
	poisoned []int
	probe    attack.Probe
	rounds   int
}

// newScenarioSetup resolves and generates everything cells of one (seed,
// attack type) share. All randomness derives from spec constants, the seed
// and the attack type; cells of one seed see identical data and partitions
// before poisoning.
func newScenarioSetup(spec ScenarioSpec, seed int64, attackType string) (*scenarioSetup, error) {
	p, err := NewPresetWithArch(spec.Dataset, Arch(spec.Arch), Scale(spec.Scale), seed)
	if err != nil {
		return nil, err
	}
	if spec.Rounds > 0 {
		p.Rounds = spec.Rounds
	}
	if spec.Clients > 0 {
		p.Clients = spec.Clients
	}
	train, test, err := p.Generate()
	if err != nil {
		return nil, err
	}
	prng := rand.New(rand.NewSource(seed*7717 + 11))
	var parts []*Dataset
	ptype := scenario.PartitionIID
	if spec.Partition != nil && spec.Partition.Type != "" {
		ptype = spec.Partition.Type
	}
	switch ptype {
	case scenario.PartitionIID:
		parts, err = data.PartitionIID(train, p.Clients, prng)
	case scenario.PartitionHeterogeneous:
		parts, err = data.PartitionHeterogeneous(train, p.Clients, spec.Partition.Skew, prng)
	case scenario.PartitionDirichlet:
		parts, err = data.PartitionDirichlet(train, p.Clients, spec.Partition.Alpha, prng)
	default:
		err = fmt.Errorf("goldfish: unknown partitioner %q", ptype)
	}
	if err != nil {
		return nil, err
	}
	s := &scenarioSetup{preset: p, test: test, parts: parts, rounds: p.Rounds}
	if a := spec.Attack; a != nil && attackType != "" {
		if a.Client >= len(parts) {
			return nil, fmt.Errorf("goldfish: attack client %d out of range [0,%d)", a.Client, len(parts))
		}
		atk, err := attack.Lookup(attackType)
		if err != nil {
			return nil, fmt.Errorf("goldfish: %w", err)
		}
		arng := rand.New(rand.NewSource(seed*9949 + 23))
		s.poisoned, err = atk.Poison(parts[a.Client], a.Config(), arng)
		if err != nil {
			return nil, fmt.Errorf("goldfish: %s: %w", attackType, err)
		}
		s.probe, err = atk.NewProbe(test, a.Config())
		if err != nil {
			return nil, fmt.Errorf("goldfish: %s: %w", attackType, err)
		}
	}
	return s, nil
}

// runScenarioCell executes one matrix cell end to end.
func runScenarioCell(ctx context.Context, spec ScenarioSpec, cell ScenarioCell) (scenario.Outcome, error) {
	var out scenario.Outcome
	s, err := newScenarioSetup(spec, cell.Seed, cell.Attack)
	if err != nil {
		return out, err
	}
	for _, d := range spec.Schedule {
		if d.Round > s.rounds {
			return out, fmt.Errorf("goldfish: schedule round %d beyond budget %d", d.Round, s.rounds)
		}
	}
	e, err := New(
		WithPreset(s.preset),
		WithPartitions(s.parts),
		WithUnlearner(cell.Strategy),
		WithSeed(cell.Seed),
	)
	if err != nil {
		return out, err
	}

	// The engine's federation is the single source of truth for deletion
	// state (original partitions, removed rows); the runner only tracks the
	// attacked client's current position — client-level departures shift
	// later positions down — and accumulates the forget subsets for the
	// membership-gap probe.
	attackPos := -1
	if spec.Attack != nil {
		attackPos = spec.Attack.Client
	}
	var forget []*Dataset
	srng := rand.New(rand.NewSource(cell.Seed*6271 + 31))
	res := &out.Result

	snapshotPre := func() error {
		net, err := e.GlobalNet()
		if err != nil {
			return err
		}
		acc := metrics.Accuracy(net, s.test, 0)
		res.PreDeletionAccuracy = &acc
		if s.probe.Rows != nil {
			asr := metrics.AttackSuccessRate(net, s.probe.Rows, s.probe.Target, 0)
			res.PreDeletionASR = &asr
		}
		return nil
	}

	completed := 0
	for k := 0; k < len(spec.Schedule); {
		round := spec.Schedule[k].Round
		if seg := round - completed; seg > 0 {
			if err := e.Run(ctx, seg); err != nil {
				return out, err
			}
			completed = round
		}
		if res.PreDeletionAccuracy == nil {
			if err := snapshotPre(); err != nil {
				return out, err
			}
		}
		// The round's entries are one batch, resolved against the rows and
		// positions before it: alive maps a schedule position to one, so a
		// departure listed earlier in the round shifts the positions later
		// entries name, and claimed keeps two entries off the same rows.
		parts := e.Partitions()
		alive := make([]int, len(parts))
		for i := range alive {
			alive[i] = i
		}
		claimed := map[int][]int{}
		var batch []unlearn.Deletion
		for ; k < len(spec.Schedule) && spec.Schedule[k].Round == round; k++ {
			d := spec.Schedule[k]
			if d.Type == scenario.DeleteClass {
				batch = append(batch, unlearn.Deletion{Kind: unlearn.KindClass, Class: d.Class})
				continue
			}
			if d.Client >= len(alive) {
				return out, fmt.Errorf("goldfish: schedule client %d out of range [0,%d)", d.Client, len(alive))
			}
			client := alive[d.Client]
			if d.Type == scenario.DeleteClient {
				alive = slices.Delete(alive, d.Client, d.Client+1)
				batch = append(batch, unlearn.Deletion{Kind: unlearn.KindClient, Client: client})
				continue
			}
			if d.Target == scenario.TargetPoisoned {
				// The poisoned rows follow the attacked client, whose
				// position may have shifted since the spec was written.
				if !slices.Contains(alive, attackPos) {
					return out, fmt.Errorf("goldfish: schedule round %d: the attacked client already departed", d.Round)
				}
				client = attackPos
			}
			rem := slices.DeleteFunc(e.RemainingRows(client), func(r int) bool { return slices.Contains(claimed[client], r) })
			var rows []int
			switch d.Target {
			case scenario.TargetPoisoned:
				for _, r := range s.poisoned {
					if _, ok := slices.BinarySearch(rem, r); ok {
						rows = append(rows, r)
					}
				}
			case scenario.TargetRandom:
				n := min(max(int(float64(len(rem))*d.Fraction+0.5), 1), len(rem))
				srng.Shuffle(len(rem), func(i, j int) { rem[i], rem[j] = rem[j], rem[i] })
				rows = rem[:n]
			default:
				rows = d.Rows
			}
			if len(rows) == 0 {
				return out, fmt.Errorf("goldfish: schedule round %d: no rows to delete on client %d", d.Round, client)
			}
			claimed[client] = append(claimed[client], rows...)
			batch = append(batch, unlearn.Deletion{Kind: unlearn.KindSample, Client: client, Rows: rows})
		}
		for i, o := range e.fed.Apply(batch) {
			if o.Err != nil {
				return out, o.Err
			}
			// A sample deletion's rows keep the order they were drawn in.
			byClient := o.Rows
			if d := batch[i]; d.Kind == unlearn.KindSample {
				byClient = map[int][]int{d.Client: d.Rows}
			}
			for _, c := range slices.Sorted(maps.Keys(byClient)) {
				if rows := byClient[c]; len(rows) > 0 {
					forget = append(forget, parts[c].Subset(rows))
					res.RemovedRows += len(rows)
				}
			}
			if batch[i].Kind == unlearn.KindClient {
				res.RemovedClients++
			}
		}
		attackPos = slices.Index(alive, attackPos)
	}
	if seg := s.rounds - completed; seg > 0 {
		if err := e.Run(ctx, seg); err != nil {
			return out, err
		}
	}
	res.Rounds = e.Round()

	net, err := e.GlobalNet()
	if err != nil {
		return out, err
	}
	test := metrics.Evaluate(net, s.test, 0, metrics.OwnLabel, true)
	res.Accuracy = test.HitRate()
	if s.probe.Rows != nil {
		asr := metrics.AttackSuccessRate(net, s.probe.Rows, s.probe.Target, 0)
		res.ASR = &asr
	}
	if len(forget) > 0 {
		all := forget[0]
		for _, f := range forget[1:] {
			if all, err = all.Concat(f); err != nil {
				return out, err
			}
		}
		gap := metrics.Evaluate(net, all, 0, metrics.OwnLabel, false).MeanTop() - test.MeanTop()
		res.MembershipGap = &gap
	}
	out.Probs = test.Probs
	return out, nil
}

// compareScenarioCells is the cross-cell comparison callback: model
// divergence and confidence t-test against the retrain reference, read from
// the two final models' test-set probability rows.
func compareScenarioCells(_ ScenarioCell, probs, ref *tensor.Tensor) (*scenario.Comparison, error) {
	div, err := metrics.RowDivergence(probs, ref)
	if err != nil {
		return nil, err
	}
	tt, err := metrics.RowConfidenceTTest(probs, ref)
	if err != nil {
		return nil, err
	}
	return &scenario.Comparison{JSD: div.JSD, L2: div.L2, T: tt.T, P: tt.P}, nil
}
