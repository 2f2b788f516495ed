package goldfish

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"goldfish/internal/attack"
	"goldfish/internal/data"
	"goldfish/internal/scenario"
	"goldfish/internal/unlearn"
)

// Scenario types re-exported from the declarative experiment engine
// (internal/scenario): a ScenarioSpec describes a config-driven unlearning
// experiment matrix — dataset, partitioner, optional attack injection (one
// or several probe styles from the attack registry), a deletion schedule,
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
	// ScenarioShardRef identifies one machine shard ("i/n") of a
	// distributed matrix run.
	ScenarioShardRef = scenario.ShardRef
)

// ParseScenarioShard parses an "i/n" machine-shard reference with
// 1 ≤ i ≤ n, as accepted by RunScenarioShard and the -shard CLI flag.
func ParseScenarioShard(s string) (ScenarioShardRef, error) { return scenario.ParseShardRef(s) }

// LoadScenario reads and validates a scenario spec file.
func LoadScenario(path string) (ScenarioSpec, error) { return scenario.Load(path) }

// ParseScenario decodes and validates a scenario spec from JSON bytes.
func ParseScenario(b []byte) (ScenarioSpec, error) { return scenario.Parse(b) }

// LoadScenarioReport reads a report file written by a scenario run — full,
// one machine shard, or the completed part of an interrupted run.
func LoadScenarioReport(path string) (*ScenarioReport, error) { return scenario.LoadReport(path) }

// MergeScenarioReports recombines partial reports (machine shards from
// RunScenarioShard and/or the completed prefix of an interrupted run) into a
// report byte-identical to a single-machine RunScenario of the same spec. It
// validates that every input embeds the same spec and that the inputs cover
// the matrix exactly once, erroring on overlapping or missing cells.
func MergeScenarioReports(reports ...*ScenarioReport) (*ScenarioReport, error) {
	return scenario.Merge(reports...)
}

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
// attack probe (backdoor, label-flip, targeted-class, or any registered
// type), train with the scheduled sample-/class-/client-level deletion
// requests applied at their rounds, and evaluate the final model (accuracy,
// the attack type's own success-rate probe, membership gap, and model
// divergence plus confidence t-test against the "retrain" reference cell of
// the same seed and attack type when the strategy axis
// includes it).
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
// the context error, so an interrupted run's finished work can be persisted
// and later recombined with MergeScenarioReports.
func RunScenario(ctx context.Context, spec ScenarioSpec) (*ScenarioReport, error) {
	return RunScenarioShard(ctx, spec, "")
}

// RunScenarioShard runs one machine shard of the spec's matrix: shard is
// "i/n" (or "" for the whole matrix), selecting the deterministic subset
// from ScenarioSpec.ShardCells. Each shard co-locates every "retrain"
// reference cell with the cells compared against it, so VsRetrain is
// populated inside every partial and MergeScenarioReports reassembles the
// shards into a report byte-identical to a single-machine run. Like
// RunScenario, cancellation returns a partial Incomplete report alongside
// the context error.
func RunScenarioShard(ctx context.Context, spec ScenarioSpec, shard string) (*ScenarioReport, error) {
	if err := ValidateScenario(spec); err != nil {
		return nil, err
	}
	var ref scenario.ShardRef
	if shard != "" {
		var err error
		if ref, err = scenario.ParseShardRef(shard); err != nil {
			return nil, err
		}
	}
	cells, err := spec.ShardCells(ref)
	if err != nil {
		return nil, err
	}
	outcomes, execErr := scenario.ExecuteCells(ctx, spec, cells, func(ctx context.Context, cell ScenarioCell) (scenario.Outcome, error) {
		return runScenarioCell(ctx, spec, cell)
	})
	if execErr != nil && outcomes == nil {
		return nil, execErr
	}
	rep, err := scenario.AssembleCells(spec, ref, cells, outcomes, newScenarioComparer(spec))
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
// the poisoned rows and the attack's success-rate probe.
type scenarioSetup struct {
	preset   Preset
	test     *Dataset
	parts    []*Dataset
	poisoned []int
	prober   AttackProber
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
		atk, err := attack.New(attackType)
		if err != nil {
			return nil, fmt.Errorf("goldfish: %w", err)
		}
		arng := rand.New(rand.NewSource(seed*9949 + 23))
		s.poisoned, err = atk.Poison(parts[a.Client], a.Config(), arng)
		if err != nil {
			return nil, fmt.Errorf("goldfish: %s: %w", attackType, err)
		}
		s.prober, err = atk.NewProber(test, a.Config())
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
		acc, err := e.TestAccuracy(s.test)
		if err != nil {
			return err
		}
		res.PreDeletionAccuracy = &acc
		if s.prober != nil {
			net, err := e.GlobalNet()
			if err != nil {
				return err
			}
			asr := s.prober.SuccessRate(net)
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
		for ; k < len(spec.Schedule) && spec.Schedule[k].Round == round; k++ {
			d := spec.Schedule[k]
			switch d.Type {
			case scenario.DeleteSample:
				client := d.Client
				if client < 0 || client >= e.NumClients() {
					return out, fmt.Errorf("goldfish: schedule client %d out of range [0,%d)", client, e.NumClients())
				}
				var rows []int
				switch d.Target {
				case scenario.TargetPoisoned:
					// The poisoned rows follow the attacked client, whose
					// position may have shifted since the spec was written.
					if attackPos < 0 {
						return out, fmt.Errorf("goldfish: schedule round %d: the attacked client already departed", d.Round)
					}
					client = attackPos
					rem := make(map[int]bool, len(s.poisoned))
					for _, r := range e.RemainingRows(client) {
						rem[r] = true
					}
					for _, r := range s.poisoned {
						if rem[r] {
							rows = append(rows, r)
						}
					}
				case scenario.TargetRandom:
					rem := e.RemainingRows(client)
					n := int(float64(len(rem))*d.Fraction + 0.5)
					if n < 1 {
						n = 1
					}
					if n > len(rem) {
						n = len(rem)
					}
					srng.Shuffle(len(rem), func(i, j int) { rem[i], rem[j] = rem[j], rem[i] })
					rows = rem[:n]
				default:
					rows = d.Rows
				}
				if len(rows) == 0 {
					return out, fmt.Errorf("goldfish: schedule round %d: no rows to delete on client %d", d.Round, client)
				}
				if err := e.RequestDeletion(client, rows); err != nil {
					return out, err
				}
				forget = append(forget, e.Partitions()[client].Subset(rows))
				res.RemovedRows += len(rows)
			case scenario.DeleteClass:
				byClient, err := e.RequestClassDeletion(d.Class)
				if err != nil {
					return out, err
				}
				for i := 0; i < e.NumClients(); i++ {
					rows := byClient[i]
					if len(rows) == 0 {
						continue
					}
					forget = append(forget, e.Partitions()[i].Subset(rows))
					res.RemovedRows += len(rows)
				}
			case scenario.DeleteClient:
				if d.Client >= e.NumClients() {
					return out, fmt.Errorf("goldfish: schedule client %d out of range [0,%d)", d.Client, e.NumClients())
				}
				if rows := e.RemainingRows(d.Client); len(rows) > 0 {
					forget = append(forget, e.Partitions()[d.Client].Subset(rows))
					res.RemovedRows += len(rows)
				}
				if err := e.RemoveClient(d.Client, true); err != nil {
					return out, err
				}
				switch {
				case d.Client == attackPos:
					attackPos = -1
				case d.Client < attackPos:
					attackPos--
				}
				res.RemovedClients++
			}
		}
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
	res.Accuracy = Accuracy(net, s.test)
	if s.prober != nil {
		asr := s.prober.SuccessRate(net)
		res.ASR = &asr
	}
	if len(forget) > 0 {
		all := forget[0]
		for _, f := range forget[1:] {
			if all, err = all.Concat(f); err != nil {
				return out, err
			}
		}
		gap := MembershipGap(net, all, s.test)
		res.MembershipGap = &gap
	}
	out.State = e.Global()
	return out, nil
}

// newScenarioComparer builds the cross-cell comparison callback: model
// divergence and confidence t-test against the retrain reference, over the
// seed's test set. Probe data and evaluation networks are cached per seed.
func newScenarioComparer(spec ScenarioSpec) scenario.CompareFunc {
	type probe struct {
		test *Dataset
		cfg  ModelConfig
	}
	var mu sync.Mutex
	cache := map[int64]*probe{}
	get := func(seed int64) (*probe, error) {
		mu.Lock()
		defer mu.Unlock()
		if p, ok := cache[seed]; ok {
			return p, nil
		}
		ps, err := NewPresetWithArch(spec.Dataset, Arch(spec.Arch), Scale(spec.Scale), seed)
		if err != nil {
			return nil, err
		}
		_, test, err := ps.Generate()
		if err != nil {
			return nil, err
		}
		p := &probe{test: test, cfg: ps.Model}
		cache[seed] = p
		return p, nil
	}
	return func(cell ScenarioCell, state, ref []float64) (*scenario.Comparison, error) {
		p, err := get(cell.Seed)
		if err != nil {
			return nil, err
		}
		a, err := BuildModel(p.cfg)
		if err != nil {
			return nil, err
		}
		b, err := BuildModel(p.cfg)
		if err != nil {
			return nil, err
		}
		if err := a.SetStateVector(state); err != nil {
			return nil, err
		}
		if err := b.SetStateVector(ref); err != nil {
			return nil, err
		}
		div, err := ModelDivergence(a, b, p.test)
		if err != nil {
			return nil, err
		}
		tt, err := ConfidenceTTest(a, b, p.test)
		if err != nil {
			return nil, err
		}
		return &scenario.Comparison{JSD: div.JSD, L2: div.L2, T: tt.T, P: tt.P}, nil
	}
}
