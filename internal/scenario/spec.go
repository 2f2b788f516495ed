// Package scenario turns unlearning experiments into data: a declarative
// JSON Spec describes the dataset, client partitioning, optional attack
// injection (one or several attack-probe styles from internal/attack), a
// deletion schedule (sample-, class- or client-level requests at given
// rounds) and the strategy × seed × attack axes of a run matrix.
// Expanding a Spec yields Cells; Execute runs them concurrently on a bounded
// worker pool via a caller-supplied Runner (the public goldfish.RunScenario
// builds cells on goldfish.New); the assembled Report is deterministic for a
// fixed Spec, so two runs of the same file are byte-identical.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"goldfish/internal/attack"
)

// Partitioner names accepted by PartitionSpec.Type.
const (
	PartitionIID           = "iid"
	PartitionHeterogeneous = "heterogeneous"
	PartitionDirichlet     = "dirichlet"
)

// Deletion request levels accepted by DeletionSpec.Type.
const (
	DeleteSample = "sample"
	DeleteClass  = "class"
	DeleteClient = "client"
)

// Sample-deletion row-selection modes accepted by DeletionSpec.Target.
const (
	TargetRows     = ""         // explicit Rows list
	TargetPoisoned = "poisoned" // the attack's poisoned rows
	TargetRandom   = "random"   // a random Fraction of the remaining rows
)

// PartitionSpec selects how the training data splits across clients.
type PartitionSpec struct {
	// Type is "iid" (default), "heterogeneous" (size + preference skew,
	// paper Fig. 8) or "dirichlet" (per-class Dirichlet label skew).
	Type string `json:"type"`
	// Skew is the heterogeneous partitioner's knob, in (0,1].
	Skew float64 `json:"skew,omitempty"`
	// Alpha is the Dirichlet concentration; smaller is more skewed.
	Alpha float64 `json:"alpha,omitempty"`
}

// AttackSpec injects a poisoning attack into one client's partition — the
// probe verifying that unlearning actually removes the poison's influence.
// Attack types come from the internal/attack type table ("backdoor",
// "label-flip", "targeted-class"); Types makes the attack a first-class
// matrix axis, so one spec sweeps several probe styles over shared knobs.
type AttackSpec struct {
	// Type selects a single attack type (a name in the attack type table).
	Type string `json:"type,omitempty"`
	// Types is the attack matrix axis: every cell of the strategy × seed
	// matrix is repeated once per listed attack type. Mutually exclusive
	// with Type.
	Types []string `json:"types,omitempty"`
	// Client is the partition index to poison.
	Client int `json:"client"`
	// Fraction of the client's eligible rows to poison, in (0,1].
	Fraction float64 `json:"fraction"`
	// TargetLabel is the class the attack drives predictions towards.
	TargetLabel int `json:"target_label"`
	// PatchSize is the backdoor trigger patch side length (default 3).
	PatchSize int `json:"patch_size,omitempty"`
	// PatchValue is the pixel value of the backdoor patch (default 3).
	PatchValue float64 `json:"patch_value,omitempty"`
	// SourceClass is the class the targeted-class attack perturbs towards
	// the target.
	SourceClass int `json:"source_class,omitempty"`
	// Strength is the targeted-class feature blend in [0,1]; 0 selects the
	// default 0.5.
	Strength float64 `json:"strength,omitempty"`
}

// TypeList resolves the attack-type axis: Types when set, else [Type].
func (a *AttackSpec) TypeList() []string {
	if len(a.Types) > 0 {
		return a.Types
	}
	return []string{a.Type}
}

// Config converts the spec's shared knobs into an attack configuration.
func (a *AttackSpec) Config() attack.Config {
	return attack.Config{
		Fraction:    a.Fraction,
		TargetLabel: a.TargetLabel,
		PatchSize:   a.PatchSize,
		PatchValue:  a.PatchValue,
		SourceClass: a.SourceClass,
		Strength:    a.Strength,
	}
}

// DeletionSpec is one scheduled deletion request.
type DeletionSpec struct {
	// Round is the number of completed rounds after which the request is
	// submitted (0 = before training starts).
	Round int `json:"round"`
	// Type is "sample", "class" or "client".
	Type string `json:"type"`
	// Client is the target client position (sample and client requests).
	Client int `json:"client,omitempty"`
	// Rows are explicit original-dataset row indices (sample requests with
	// an empty Target).
	Rows []int `json:"rows,omitempty"`
	// Target selects rows for sample requests: "" (use Rows), "poisoned"
	// (the attack's poisoned rows) or "random" (a Fraction of the rows
	// remaining on the client).
	Target string `json:"target,omitempty"`
	// Fraction is the share of remaining rows removed by "random", in
	// (0,1].
	Fraction float64 `json:"fraction,omitempty"`
	// Class is the label removed everywhere by class requests.
	Class int `json:"class,omitempty"`
}

// Spec is a declarative unlearning experiment matrix.
type Spec struct {
	// Name identifies the scenario in reports.
	Name string `json:"name"`
	// Dataset is a preset name: "mnist", "fmnist", "cifar10", "cifar100".
	Dataset string `json:"dataset"`
	// Scale is the experiment scale ("tiny", "small", "medium", "paper";
	// default "small").
	Scale string `json:"scale,omitempty"`
	// Arch overrides the preset's dataset→architecture pairing.
	Arch string `json:"arch,omitempty"`
	// Clients overrides the preset's client count.
	Clients int `json:"clients,omitempty"`
	// Rounds is the total round budget (default: the preset's).
	Rounds int `json:"rounds,omitempty"`
	// Partition selects the client partitioner (default IID).
	Partition *PartitionSpec `json:"partition,omitempty"`
	// Attack optionally poisons one client's partition; listing several
	// attack types adds an attack axis to the run matrix.
	Attack *AttackSpec `json:"attack,omitempty"`
	// Schedule lists deletion requests by round.
	Schedule []DeletionSpec `json:"schedule,omitempty"`
	// Strategies is the unlearner axis (strategy names).
	Strategies []string `json:"strategies"`
	// Seeds is the repetition axis; empty with Repetitions=N selects seeds
	// 1..N, and both empty selects seed 1.
	Seeds []int64 `json:"seeds,omitempty"`
	// Repetitions generates seeds 1..N when Seeds is empty.
	Repetitions int `json:"repetitions,omitempty"`
	// Workers bounds concurrent cell execution (default GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// Parse decodes and validates a Spec from JSON, rejecting unknown fields so
// typos in experiment files fail loudly.
func Parse(b []byte) (Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("scenario: trailing data after the spec object")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Load reads and parses a Spec file.
func Load(path string) (Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(b)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// SeedList resolves the repetition axis: explicit Seeds, else 1..Repetitions,
// else [1].
func (s Spec) SeedList() []int64 {
	if len(s.Seeds) > 0 {
		return s.Seeds
	}
	n := s.Repetitions
	if n <= 0 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// AttackList resolves the attack-type axis: [""] without an attack (the
// matrix has a single, unattacked plane), else the spec's attack types.
func (s Spec) AttackList() []string {
	if s.Attack == nil {
		return []string{""}
	}
	return s.Attack.TypeList()
}

// MaxCells bounds the size of a spec's run matrix. The cap exists so
// Validate can reject absurd axis products (e.g. a huge Repetitions) with an
// error instead of letting Cells/SeedList panic or exhaust memory on
// allocation.
const MaxCells = 1_000_000

// Validate reports spec errors. Errors only the resolved preset can detect
// (client counts vs data size, unknown dataset names) surface at run time.
func (s Spec) Validate() error {
	if s.Dataset == "" {
		return fmt.Errorf("scenario: spec needs a dataset")
	}
	switch s.Scale {
	case "", "tiny", "small", "medium", "paper":
	default:
		return fmt.Errorf("scenario: unknown scale %q", s.Scale)
	}
	if len(s.Strategies) == 0 {
		return fmt.Errorf("scenario: spec needs at least one strategy")
	}
	seenStrat := map[string]bool{}
	for _, st := range s.Strategies {
		if st == "" {
			return fmt.Errorf("scenario: empty strategy name")
		}
		if seenStrat[st] {
			return fmt.Errorf("scenario: duplicate strategy %q", st)
		}
		seenStrat[st] = true
	}
	seenSeed := map[int64]bool{}
	for _, seed := range s.Seeds {
		if seed == 0 {
			return fmt.Errorf("scenario: seed 0 is reserved (selects the default); use explicit seeds")
		}
		if seenSeed[seed] {
			return fmt.Errorf("scenario: duplicate seed %d", seed)
		}
		seenSeed[seed] = true
	}
	if s.Repetitions < 0 {
		return fmt.Errorf("scenario: negative repetitions %d", s.Repetitions)
	}
	if len(s.Seeds) > 0 && s.Repetitions > 0 {
		return fmt.Errorf("scenario: seeds and repetitions are mutually exclusive")
	}
	if s.Clients < 0 {
		return fmt.Errorf("scenario: negative client count %d", s.Clients)
	}
	if s.Rounds < 0 {
		return fmt.Errorf("scenario: negative round budget %d", s.Rounds)
	}
	if s.Workers < 0 {
		return fmt.Errorf("scenario: negative worker count %d", s.Workers)
	}
	if p := s.Partition; p != nil {
		switch p.Type {
		case "", PartitionIID:
		case PartitionHeterogeneous:
			if p.Skew <= 0 || p.Skew > 1 {
				return fmt.Errorf("scenario: heterogeneous skew %g out of (0,1]", p.Skew)
			}
		case PartitionDirichlet:
			if p.Alpha <= 0 {
				return fmt.Errorf("scenario: dirichlet alpha %g must be positive", p.Alpha)
			}
		default:
			return fmt.Errorf("scenario: unknown partitioner %q", p.Type)
		}
	}
	if a := s.Attack; a != nil {
		if a.Type != "" && len(a.Types) > 0 {
			return fmt.Errorf("scenario: attack type and types are mutually exclusive")
		}
		if a.Client < 0 {
			return fmt.Errorf("scenario: attack client %d negative", a.Client)
		}
		seenAttack := map[string]bool{}
		for _, typ := range a.TypeList() {
			if typ == "" {
				return fmt.Errorf("scenario: attack needs a type (known: %s)", strings.Join(attack.Types(), ", "))
			}
			if seenAttack[typ] {
				return fmt.Errorf("scenario: duplicate attack type %q", typ)
			}
			seenAttack[typ] = true
			atk, err := attack.Lookup(typ)
			if err != nil {
				return fmt.Errorf("scenario: %w", err)
			}
			if err := atk.Validate(a.Config()); err != nil {
				return fmt.Errorf("scenario: %w", err)
			}
		}
	}
	// Bound the matrix before any axis is materialized: SeedList allocates
	// Repetitions entries and Cells allocates the full axis product, so an
	// absurd spec must fail here, not panic in make.
	seedN := len(s.Seeds)
	if seedN == 0 {
		if seedN = s.Repetitions; seedN <= 0 {
			seedN = 1
		}
	}
	cellN := int64(1)
	for _, axis := range []int{len(s.Strategies), seedN, len(s.AttackList())} {
		// Bounding every factor keeps the running product ≤ MaxCells² and
		// therefore free of int64 overflow.
		if int64(axis) > MaxCells {
			return fmt.Errorf("scenario: the spec's run matrix exceeds %d cells", MaxCells)
		}
		if cellN *= int64(axis); cellN > MaxCells {
			return fmt.Errorf("scenario: the spec's run matrix exceeds %d cells", MaxCells)
		}
	}
	for i, d := range s.Schedule {
		if d.Round < 0 {
			return fmt.Errorf("scenario: schedule[%d]: negative round %d", i, d.Round)
		}
		if s.Rounds > 0 && d.Round > s.Rounds {
			return fmt.Errorf("scenario: schedule[%d]: round %d beyond budget %d", i, d.Round, s.Rounds)
		}
		switch d.Type {
		case DeleteSample:
			if d.Client < 0 {
				return fmt.Errorf("scenario: schedule[%d]: negative client %d", i, d.Client)
			}
			switch d.Target {
			case TargetRows:
				if len(d.Rows) == 0 {
					return fmt.Errorf("scenario: schedule[%d]: sample deletion needs rows or a target", i)
				}
				for _, r := range d.Rows {
					if r < 0 {
						return fmt.Errorf("scenario: schedule[%d]: negative row %d", i, r)
					}
				}
			case TargetPoisoned:
				if s.Attack == nil {
					return fmt.Errorf("scenario: schedule[%d]: target \"poisoned\" needs an attack", i)
				}
				if d.Client != s.Attack.Client {
					return fmt.Errorf("scenario: schedule[%d]: poisoned rows live on client %d, not %d",
						i, s.Attack.Client, d.Client)
				}
			case TargetRandom:
				if d.Fraction <= 0 || d.Fraction > 1 {
					return fmt.Errorf("scenario: schedule[%d]: random fraction %g out of (0,1]", i, d.Fraction)
				}
			default:
				return fmt.Errorf("scenario: schedule[%d]: unknown target %q", i, d.Target)
			}
		case DeleteClass:
			if d.Class < 0 {
				return fmt.Errorf("scenario: schedule[%d]: negative class %d", i, d.Class)
			}
		case DeleteClient:
			if d.Client < 0 {
				return fmt.Errorf("scenario: schedule[%d]: negative client %d", i, d.Client)
			}
		default:
			return fmt.Errorf("scenario: schedule[%d]: unknown deletion type %q", i, d.Type)
		}
	}
	// The schedule must be applied in deterministic order; require it sorted
	// by round so the file reads the way it executes.
	if !sort.SliceIsSorted(s.Schedule, func(a, b int) bool {
		return s.Schedule[a].Round < s.Schedule[b].Round
	}) {
		return fmt.Errorf("scenario: schedule must be sorted by round")
	}
	return nil
}
