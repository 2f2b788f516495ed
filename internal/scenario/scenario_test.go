package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldfish/internal/tensor"
)

func validSpec() Spec {
	return Spec{
		Name:       "t",
		Dataset:    "mnist",
		Scale:      "tiny",
		Rounds:     4,
		Strategies: []string{"goldfish", "retrain"},
		Seeds:      []int64{1, 2},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no dataset", func(s *Spec) { s.Dataset = "" }},
		{"bad scale", func(s *Spec) { s.Scale = "huge" }},
		{"no strategies", func(s *Spec) { s.Strategies = nil }},
		{"empty strategy", func(s *Spec) { s.Strategies = []string{""} }},
		{"dup strategy", func(s *Spec) { s.Strategies = []string{"goldfish", "goldfish"} }},
		{"seed zero", func(s *Spec) { s.Seeds = []int64{0} }},
		{"dup seed", func(s *Spec) { s.Seeds = []int64{3, 3} }},
		{"seeds and reps", func(s *Spec) { s.Repetitions = 2 }},
		{"neg reps", func(s *Spec) { s.Seeds = nil; s.Repetitions = -1 }},
		{"huge reps", func(s *Spec) { s.Seeds = nil; s.Repetitions = 1 << 62 }},
		{"huge matrix", func(s *Spec) { s.Seeds = nil; s.Repetitions = MaxCells }},
		{"neg clients", func(s *Spec) { s.Clients = -1 }},
		{"neg rounds", func(s *Spec) { s.Rounds = -1 }},
		{"neg workers", func(s *Spec) { s.Workers = -1 }},
		{"bad partitioner", func(s *Spec) { s.Partition = &PartitionSpec{Type: "sorted"} }},
		{"het skew", func(s *Spec) { s.Partition = &PartitionSpec{Type: PartitionHeterogeneous, Skew: 2} }},
		{"dirichlet alpha", func(s *Spec) { s.Partition = &PartitionSpec{Type: PartitionDirichlet} }},
		{"bad attack type", func(s *Spec) { s.Attack = &AttackSpec{Type: "gradient-inversion", Fraction: 0.1} }},
		{"no attack type", func(s *Spec) { s.Attack = &AttackSpec{Fraction: 0.1} }},
		{"type and types", func(s *Spec) {
			s.Attack = &AttackSpec{Type: "backdoor", Types: []string{"label-flip"}, Fraction: 0.1}
		}},
		{"dup attack type", func(s *Spec) {
			s.Attack = &AttackSpec{Types: []string{"backdoor", "backdoor"}, Fraction: 0.1}
		}},
		{"bad type in types", func(s *Spec) {
			s.Attack = &AttackSpec{Types: []string{"backdoor", "gradient-inversion"}, Fraction: 0.1}
		}},
		{"attack fraction", func(s *Spec) { s.Attack = &AttackSpec{Type: "backdoor", Fraction: 0} }},
		{"neg attack client", func(s *Spec) { s.Attack = &AttackSpec{Type: "backdoor", Fraction: 0.1, Client: -1} }},
		{"neg attack patch", func(s *Spec) { s.Attack = &AttackSpec{Type: "backdoor", Fraction: 0.1, PatchSize: -1} }},
		{"targeted source equals target", func(s *Spec) {
			s.Attack = &AttackSpec{Type: "targeted-class", Fraction: 0.1, TargetLabel: 1, SourceClass: 1}
		}},
		{"targeted bad strength", func(s *Spec) {
			s.Attack = &AttackSpec{Type: "targeted-class", Fraction: 0.1, SourceClass: 1, Strength: 2}
		}},
		{"schedule neg round", func(s *Spec) {
			s.Schedule = []DeletionSpec{{Round: -1, Type: DeleteSample, Rows: []int{0}}}
		}},
		{"schedule beyond budget", func(s *Spec) {
			s.Schedule = []DeletionSpec{{Round: 9, Type: DeleteSample, Rows: []int{0}}}
		}},
		{"schedule bad type", func(s *Spec) { s.Schedule = []DeletionSpec{{Round: 1, Type: "tensor"}} }},
		{"sample no rows", func(s *Spec) { s.Schedule = []DeletionSpec{{Round: 1, Type: DeleteSample}} }},
		{"sample neg row", func(s *Spec) {
			s.Schedule = []DeletionSpec{{Round: 1, Type: DeleteSample, Rows: []int{-1}}}
		}},
		{"sample bad target", func(s *Spec) {
			s.Schedule = []DeletionSpec{{Round: 1, Type: DeleteSample, Target: "everything"}}
		}},
		{"poisoned without attack", func(s *Spec) {
			s.Schedule = []DeletionSpec{{Round: 1, Type: DeleteSample, Target: TargetPoisoned}}
		}},
		{"poisoned wrong client", func(s *Spec) {
			s.Attack = &AttackSpec{Type: "backdoor", Client: 0, Fraction: 0.1}
			s.Schedule = []DeletionSpec{{Round: 1, Type: DeleteSample, Client: 1, Target: TargetPoisoned}}
		}},
		{"random bad fraction", func(s *Spec) {
			s.Schedule = []DeletionSpec{{Round: 1, Type: DeleteSample, Target: TargetRandom, Fraction: 1.5}}
		}},
		{"class negative", func(s *Spec) { s.Schedule = []DeletionSpec{{Round: 1, Type: DeleteClass, Class: -1}} }},
		{"client negative", func(s *Spec) { s.Schedule = []DeletionSpec{{Round: 1, Type: DeleteClient, Client: -1}} }},
		{"unsorted schedule", func(s *Spec) {
			s.Schedule = []DeletionSpec{
				{Round: 3, Type: DeleteClass, Class: 1},
				{Round: 1, Type: DeleteClass, Class: 2},
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Errorf("%s: invalid spec accepted", tc.name)
			}
		})
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"dataset":"mnist","strategies":["goldfish"],"sheds":[1]}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Parse([]byte(`{"dataset":"mnist"`)); err == nil {
		t.Error("truncated JSON accepted")
	}
	s, err := Parse([]byte(`{"dataset":"mnist","strategies":["goldfish"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SeedList(); len(got) != 1 || got[0] != 1 {
		t.Errorf("default SeedList = %v, want [1]", got)
	}
}

func TestSeedListRepetitions(t *testing.T) {
	s := Spec{Repetitions: 3}
	if got := s.SeedList(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("SeedList = %v, want [1 2 3]", got)
	}
}

// TestCellsOrderAndIndex: every axis keeps the spec's listed order (not a
// sorted one), strategy-major, then seed, then attack type.
func TestCellsOrderAndIndex(t *testing.T) {
	s := validSpec()
	s.Strategies = []string{"retrain", "goldfish"}
	s.Seeds = []int64{5, 2}
	s.Attack = &AttackSpec{Types: []string{"label-flip", "backdoor"}, Fraction: 0.2, TargetLabel: 0}
	cells := s.Cells()
	if len(cells) != 2*2*2 {
		t.Fatalf("len(cells) = %d, want 8", len(cells))
	}
	want := []Cell{
		{"retrain", 5, "label-flip"}, {"retrain", 5, "backdoor"},
		{"retrain", 2, "label-flip"}, {"retrain", 2, "backdoor"},
		{"goldfish", 5, "label-flip"}, {"goldfish", 5, "backdoor"},
		{"goldfish", 2, "label-flip"}, {"goldfish", 2, "backdoor"},
	}
	for i, c := range cells {
		if c != want[i] {
			t.Errorf("cells[%d] = %+v, want %+v", i, c, want[i])
		}
	}
}

// TestCellsAttackAxis: listing several attack types multiplies the matrix by
// an attack dimension, attack-minor, and every cell is stamped with its type.
func TestCellsAttackAxis(t *testing.T) {
	s := validSpec()
	s.Attack = &AttackSpec{Types: []string{"backdoor", "label-flip"}, Fraction: 0.2, TargetLabel: 0}
	cells := s.Cells()
	if len(cells) != 2*2*2 {
		t.Fatalf("len(cells) = %d, want 8", len(cells))
	}
	want := []Cell{
		{"goldfish", 1, "backdoor"}, {"goldfish", 1, "label-flip"},
		{"goldfish", 2, "backdoor"}, {"goldfish", 2, "label-flip"},
		{"retrain", 1, "backdoor"}, {"retrain", 1, "label-flip"},
		{"retrain", 2, "backdoor"}, {"retrain", 2, "label-flip"},
	}
	for i, c := range cells {
		if c != want[i] {
			t.Errorf("cells[%d] = %+v, want %+v", i, c, want[i])
		}
	}
	// A single-type attack stamps every cell with that type.
	s.Attack = &AttackSpec{Type: "backdoor", Fraction: 0.2, TargetLabel: 0}
	for _, c := range s.Cells() {
		if c.Attack != "backdoor" {
			t.Fatalf("cell %+v missing its attack stamp", c)
		}
	}
}

func TestExecuteRunsAllCellsBounded(t *testing.T) {
	s := validSpec()
	s.Workers = 2
	var inFlight, peak int32
	outcomes, err := Execute(context.Background(), s, func(ctx context.Context, c Cell) (Outcome, error) {
		cur := atomic.AddInt32(&inFlight, 1)
		defer atomic.AddInt32(&inFlight, -1)
		for {
			p := atomic.LoadInt32(&peak)
			if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
				break
			}
		}
		var o Outcome
		o.Result.Accuracy = float64(c.Seed)
		o.Probs = fakeRows(1)
		return o, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 4 {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	for i, c := range s.Cells() {
		r := outcomes[i].Result
		if r.Strategy != c.Strategy || r.Seed != c.Seed || r.Attack != c.Attack {
			t.Errorf("outcome %d labelled %s/%d/%q, want %s/%d/%q",
				i, r.Strategy, r.Seed, r.Attack, c.Strategy, c.Seed, c.Attack)
		}
		if r.Accuracy != float64(c.Seed) {
			t.Errorf("outcome %d accuracy %g, want %g", i, r.Accuracy, float64(c.Seed))
		}
	}
	if peak > 2 {
		t.Errorf("worker pool peaked at %d concurrent cells, bound is 2", peak)
	}
}

func TestExecuteRecordsCellErrors(t *testing.T) {
	s := validSpec()
	outcomes, err := Execute(context.Background(), s, func(ctx context.Context, c Cell) (Outcome, error) {
		if c.Strategy == "retrain" {
			var o Outcome
			o.Probs = fakeRows(1) // must be dropped on error
			return o, errors.New("boom")
		}
		return Outcome{Probs: fakeRows(2)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range s.Cells() {
		o := outcomes[i]
		if c.Strategy == "retrain" {
			if o.Result.Error != "boom" {
				t.Errorf("cell %d error = %q, want boom", i, o.Result.Error)
			}
			if o.Probs != nil {
				t.Errorf("cell %d kept probability rows despite error", i)
			}
		} else if o.Result.Error != "" {
			t.Errorf("cell %d unexpected error %q", i, o.Result.Error)
		}
	}
	rep, err := Assemble(s, outcomes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Complete(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("Complete() = %v, want the failed cell surfaced", err)
	}
}

// TestExecuteHonoursCancellation: an interrupted matrix returns the context
// error together with outcomes that Assemble turns into a partial report,
// marked Incomplete, whose rows equal a completed run's rows exactly — which
// is what makes "run it again" the resume.
func TestExecuteHonoursCancellation(t *testing.T) {
	t.Run("before start", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		outcomes, err := Execute(ctx, validSpec(), func(ctx context.Context, c Cell) (Outcome, error) {
			t.Error("a cell ran after cancellation")
			return Outcome{}, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Execute returned %v, want context.Canceled", err)
		}
		for i, o := range outcomes {
			if !o.Canceled {
				t.Errorf("cell %d not marked Canceled", i)
			}
		}
	})
	t.Run("mid-matrix", func(t *testing.T) {
		s := validSpec() // goldfish+retrain × seeds 1,2
		s.Workers = 1    // deterministic: cells run one at a time, in order
		ctx, cancel := context.WithCancel(context.Background())
		var ran int32
		outcomes, err := Execute(ctx, s, func(ctx context.Context, c Cell) (Outcome, error) {
			if atomic.AddInt32(&ran, 1) == 2 {
				cancel() // interrupt after the second cell completes
			}
			return fakeOutcome(c), nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Execute returned %v, want context.Canceled", err)
		}
		var canceled int
		for _, o := range outcomes {
			if o.Canceled {
				canceled++
			}
		}
		if canceled == 0 || canceled > 2 {
			t.Fatalf("%d canceled outcomes, want 1-2", canceled)
		}
		rep, err := Assemble(s, outcomes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Incomplete {
			t.Error("partial report not marked incomplete")
		}
		if err := rep.Complete(); err == nil {
			t.Error("incomplete partial passed Complete")
		}
		full := fullFakeReport(t, s, nil)
		if len(rep.Cells) != len(full.Cells)-canceled {
			t.Fatalf("partial has %d rows, want %d", len(rep.Cells), len(full.Cells)-canceled)
		}
		for i, row := range rep.Cells {
			if !reflect.DeepEqual(row, full.Cells[i]) {
				t.Errorf("finished row %d = %+v, a completed run has %+v", i, row, full.Cells[i])
			}
		}
	})
	t.Run("after last cell", func(t *testing.T) {
		// A cancellation that lands only after every cell has finished
		// leaves no outcome Canceled, so the report equals an uninterrupted
		// run's and RunScenario drops the spurious interrupt.
		s := validSpec()
		s.Workers = 1
		n := len(s.Cells())
		ctx, cancel := context.WithCancel(context.Background())
		var ran int32
		outcomes, err := Execute(ctx, s, func(ctx context.Context, c Cell) (Outcome, error) {
			if int(atomic.AddInt32(&ran, 1)) == n {
				cancel() // interrupt arrives while the LAST cell is finishing
			}
			return Outcome{Probs: fakeRows(1)}, nil
		})
		if err == nil {
			t.Fatal("late-cancelled Execute returned nil error")
		}
		for i, o := range outcomes {
			if o.Canceled {
				t.Errorf("cell %d marked Canceled despite finishing", i)
			}
		}
		rep, err := Assemble(s, outcomes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Incomplete {
			t.Error("fully-finished run marked incomplete")
		}
		if err := rep.Complete(); err != nil {
			t.Errorf("fully-finished run failed Complete: %v", err)
		}
	})
}

// TestNoGoroutineLeakExecute: a matrix cancelled while its pool is busy
// returns with every worker gone — the feeder drained the remaining cells and
// closed the channel rather than abandoning workers parked on it.
func TestNoGoroutineLeakExecute(t *testing.T) {
	s := Spec{Name: "leak", Dataset: "mnist", Scale: "tiny", Rounds: 1,
		Strategies: []string{"a", "b"}, Repetitions: 100, Workers: 4}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int32
	_, err := Execute(ctx, s, func(ctx context.Context, c Cell) (Outcome, error) {
		if atomic.AddInt32(&ran, 1) == 10 {
			cancel()
		}
		return Outcome{Probs: fakeRows(1)}, nil
	})
	if err == nil {
		t.Fatal("cancelled Execute returned nil error")
	}
	// Poll: a worker is still counted for an instant after its wg.Done.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the run:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAssembleComparesAgainstRetrain(t *testing.T) {
	s := validSpec() // strategies: goldfish, retrain; seeds 1,2
	cells := s.Cells()
	outcomes := make([]Outcome, len(cells))
	for i, c := range cells {
		outcomes[i] = Outcome{Probs: fakeRows(float64(c.Seed))}
	}
	var mu sync.Mutex
	compared := map[string]bool{}
	rep, err := Assemble(s, outcomes, func(cell Cell, probs, ref *tensor.Tensor) (*Comparison, error) {
		if probs.Data()[0] != ref.Data()[0] {
			return nil, fmt.Errorf("seed mismatch: rows %g vs ref %g", probs.Data()[0], ref.Data()[0])
		}
		mu.Lock()
		compared[fmt.Sprintf("%s/%d", cell.Strategy, cell.Seed)] = true
		mu.Unlock()
		return &Comparison{JSD: 0.5}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Complete(); err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		row := rep.Cells[i]
		if c.Strategy == RetrainReference {
			if row.VsRetrain != nil {
				t.Errorf("retrain cell %d compared against itself", i)
			}
		} else if row.VsRetrain == nil || row.VsRetrain.JSD != 0.5 {
			t.Errorf("cell %d missing comparison: %+v", i, row.VsRetrain)
		}
	}
	if len(compared) != 2 {
		t.Errorf("compared cells: %v, want both goldfish seeds", compared)
	}
	// Without a retrain strategy on the axis, no comparisons happen.
	s2 := validSpec()
	s2.Strategies = []string{"goldfish", "fisher"}
	outcomes2 := make([]Outcome, len(s2.Cells()))
	for i := range outcomes2 {
		outcomes2[i] = Outcome{Probs: fakeRows(1)}
	}
	rep2, err := Assemble(s2, outcomes2, func(Cell, *tensor.Tensor, *tensor.Tensor) (*Comparison, error) {
		t.Error("compare called without a retrain reference")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rep2.Cells {
		if row.VsRetrain != nil {
			t.Errorf("cell %d compared without reference", i)
		}
	}
	t.Run("orphaned comparand", func(t *testing.T) {
		// A finished non-reference cell whose retrain reference was
		// canceled is dropped too: a completed run would have given it a
		// VsRetrain comparison that the partial cannot compute.
		outcomes := make([]Outcome, len(cells))
		for i, c := range cells {
			if c.Strategy == RetrainReference && c.Seed == 2 {
				outcomes[i] = Outcome{Canceled: true}
			} else {
				outcomes[i] = Outcome{Probs: fakeRows(1)}
			}
		}
		rep, err := Assemble(s, outcomes, func(cell Cell, probs, ref *tensor.Tensor) (*Comparison, error) {
			return &Comparison{JSD: 0.1}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Incomplete {
			t.Error("report with a canceled reference not marked incomplete")
		}
		if len(rep.Cells) != 2 {
			t.Errorf("kept %d rows, want goldfish/seed 1 and retrain/seed 1", len(rep.Cells))
		}
		for _, row := range rep.Cells {
			if row.Seed == 2 {
				t.Errorf("%s/seed 2 kept despite its canceled retrain reference", row.Strategy)
			}
			if row.Strategy != RetrainReference && row.VsRetrain == nil {
				t.Errorf("%s/seed %d missing comparison", row.Strategy, row.Seed)
			}
		}
	})
}

func TestCompleteDetectsMissingCells(t *testing.T) {
	s := validSpec()
	rep := &Report{Name: s.Name, Spec: s, Cells: nil}
	if err := rep.Complete(); err == nil {
		t.Error("empty report passed Complete")
	}
	outcomes := make([]Outcome, len(s.Cells()))
	full, err := Assemble(s, outcomes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Complete(); err != nil {
		t.Fatal(err)
	}
	t.Run("short report", func(t *testing.T) {
		short := *full
		short.Cells = full.Cells[:len(full.Cells)-1]
		if err := short.Complete(); err == nil || !strings.Contains(err.Error(), "3 cells, matrix has 4") {
			t.Errorf("short report: Complete() = %v", err)
		}
	})
	marked := *full
	marked.Incomplete = true
	if err := marked.Complete(); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("report marked incomplete: Complete() = %v", err)
	}
	// A swapped row is a mislabelled matrix, not a complete one.
	full.Cells[0], full.Cells[1] = full.Cells[1], full.Cells[0]
	if err := full.Complete(); err == nil {
		t.Error("mislabelled report passed Complete")
	}
}

func TestReportJSONDeterministic(t *testing.T) {
	s := validSpec()
	outcomes := make([]Outcome, len(s.Cells()))
	for i := range outcomes {
		asr := 0.25
		outcomes[i].Result.Accuracy = 0.5
		outcomes[i].Result.ASR = &asr
	}
	rep, err := Assemble(s, outcomes, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("report marshalling is not deterministic")
	}
	var sb strings.Builder
	rep.RenderText(&sb)
	if !strings.Contains(sb.String(), "goldfish") || !strings.Contains(sb.String(), "retrain") {
		t.Errorf("RenderText missing strategies:\n%s", sb.String())
	}
	t.Run("file round trip", func(t *testing.T) {
		for _, rep := range []*Report{fullFakeReport(t, validSpec(), fakeCompare), interruptedFakeReport(t)} {
			want, err := rep.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "report.json")
			if err := rep.WriteJSON(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadReport(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report changed through WriteJSON/LoadReport:\n%s\nwant\n%s", got, want)
			}
		}
	})
}

func TestParseRejectsTrailingData(t *testing.T) {
	if _, err := Parse([]byte(`{"dataset":"mnist","strategies":["goldfish"]}{"dataset":"x"}`)); err == nil {
		t.Error("concatenated spec objects accepted")
	}
	if _, err := Parse([]byte(`{"dataset":"mnist","strategies":["goldfish"]} junk`)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := Parse([]byte("{\"dataset\":\"mnist\",\"strategies\":[\"goldfish\"]}\n\n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

func TestAssembleCanonicalizesWorkers(t *testing.T) {
	s := validSpec()
	outcomes := make([]Outcome, len(s.Cells()))
	s.Workers = 2
	a, err := Assemble(s, outcomes, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 8
	b, err := Assemble(s, outcomes, nil)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Error("reports differ across worker bounds; the execution knob leaked into the report")
	}
	if a.Spec.Workers != 0 {
		t.Errorf("embedded spec kept Workers=%d", a.Spec.Workers)
	}
}

// TestExecuteFixedWorkerPool: Execute must run a
// fixed pool of `workers` goroutines pulling cells from a channel, not spawn
// one goroutine per cell up front — a 10k-cell matrix must not park
// 10k goroutines on the semaphore.
func TestExecuteFixedWorkerPool(t *testing.T) {
	s := Spec{
		Name:        "pool",
		Dataset:     "mnist",
		Scale:       "tiny",
		Rounds:      1,
		Strategies:  []string{"a", "b"},
		Repetitions: 500, // 1000 cells
		Workers:     3,
	}
	before := runtime.NumGoroutine()
	var peak int32
	outcomes, err := Execute(context.Background(), s, func(ctx context.Context, c Cell) (Outcome, error) {
		g := int32(runtime.NumGoroutine())
		for {
			p := atomic.LoadInt32(&peak)
			if g <= p || atomic.CompareAndSwapInt32(&peak, p, g) {
				break
			}
		}
		return Outcome{Probs: fakeRows(1)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 1000 {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	// Pool of 3 plus the feeder and test goroutines; anywhere near 1000
	// means per-cell goroutines are back.
	if int(peak) > before+20 {
		t.Errorf("observed %d goroutines during a 1000-cell matrix with 3 workers (baseline %d)", peak, before)
	}
}

func TestParseReportRejectsGarbage(t *testing.T) {
	if _, err := ParseReport([]byte(`{"name":"x"`)); err == nil {
		t.Error("truncated report accepted")
	}
	if _, err := ParseReport([]byte(`{"name":"x","spec":{"dataset":"mnist","strategies":["g"]},"cells":[],"junk":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseReport([]byte(`{"name":"x","spec":{"dataset":""},"cells":[]}`)); err == nil {
		t.Error("invalid embedded spec accepted")
	}
	if _, err := ParseReport([]byte(`{"name":"x","spec":{"dataset":"mnist","strategies":["g"]},"shard":"1/2","cells":[]}`)); err == nil {
		t.Error("a shard marker, which no report carries, accepted")
	}
	if _, err := LoadReport("/nonexistent/report.json"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestParseReportMigratesLegacyAttackRows: a report written before rows
// carried an "attack" stamp (single-type attack spec, rows keyed attack="")
// must load, adopt the spec's type, and pass Complete — not be rejected as
// outside the matrix.
func TestParseReportMigratesLegacyAttackRows(t *testing.T) {
	legacy := []byte(`{
  "name": "legacy",
  "spec": {
    "name": "legacy",
    "dataset": "mnist",
    "scale": "tiny",
    "rounds": 2,
    "attack": {"type": "backdoor", "client": 0, "fraction": 0.3, "target_label": 0},
    "strategies": ["goldfish"],
    "seeds": [1]
  },
  "cells": [
    {"strategy": "goldfish", "seed": 1, "rounds": 2, "removed_rows": 0, "accuracy": 0.5}
  ]
}`)
	r, err := ParseReport(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Cells[0].Attack; got != "backdoor" {
		t.Errorf("legacy row migrated to attack %q, want backdoor", got)
	}
	if err := r.Complete(); err != nil {
		t.Errorf("migrated legacy report failed Complete: %v", err)
	}
}

// TestParseReportRejectsDuplicateAndForeignRows: every row must name a
// distinct cell of the embedded spec's matrix — a row listed twice, or one
// whose seed or attack type the matrix lacks, fails the parse.
func TestParseReportRejectsDuplicateAndForeignRows(t *testing.T) {
	spec := validSpec()
	spec.Attack = &AttackSpec{Types: []string{"backdoor", "label-flip"}, Fraction: 0.3, TargetLabel: 0}
	rep := fullFakeReport(t, spec, fakeCompare)
	cases := []struct {
		name, want string
		mutate     func([]CellResult) []CellResult
	}{
		{"duplicated row", "twice", func(c []CellResult) []CellResult { return append(c, c[0]) }},
		{"foreign seed", "not in the spec's matrix", func(c []CellResult) []CellResult { c[0].Seed = 99; return c }},
		{"foreign attack", "not in the spec's matrix", func(c []CellResult) []CellResult { c[1].Attack = "targeted-class"; return c }},
	}
	for _, tc := range cases {
		bad := *rep
		bad.Cells = tc.mutate(append([]CellResult{}, rep.Cells...))
		b, err := bad.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseReport(b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ParseReport = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if b, err := rep.MarshalIndent(); err != nil {
		t.Fatal(err)
	} else if _, err := ParseReport(b); err != nil {
		t.Errorf("the unmodified report was rejected: %v", err)
	}
}

// fakeOutcome builds a deterministic outcome for a cell, so an interrupted
// and a completed run see identical per-cell results.
func fakeOutcome(c Cell) Outcome {
	var o Outcome
	o.Result.Rounds = 4
	o.Result.Accuracy = 0.5 + 0.01*float64(c.Seed) + 0.0001*float64(len(c.Attack))
	o.Probs = fakeRows(float64(c.Seed), float64(len(c.Attack)), float64(len(c.Strategy)))
	return o
}

// fakeCompare derives a comparison purely from the two fake probability
// rows, mirroring the determinism contract of the real comparer.
func fakeCompare(cell Cell, probs, ref *tensor.Tensor) (*Comparison, error) {
	return &Comparison{JSD: probs.Data()[2] - ref.Data()[2], L2: probs.Data()[0], T: 1, P: 0.5}, nil
}

// fullFakeReport assembles a completed run of spec from fakeOutcome.
func fullFakeReport(t *testing.T, spec Spec, compare CompareFunc) *Report {
	t.Helper()
	cells := spec.Cells()
	outcomes := make([]Outcome, len(cells))
	for i, c := range cells {
		outcomes[i] = fakeOutcome(c)
	}
	rep, err := Assemble(spec, outcomes, compare)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// interruptedFakeReport is validSpec's report with seed 2 canceled.
func interruptedFakeReport(t *testing.T) *Report {
	t.Helper()
	spec := validSpec()
	cells := spec.Cells()
	outcomes := make([]Outcome, len(cells))
	for i, c := range cells {
		outcomes[i] = fakeOutcome(c)
		outcomes[i].Canceled = c.Seed == 2
	}
	rep, err := Assemble(spec, outcomes, fakeCompare)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Incomplete || len(rep.Cells) != 2 {
		t.Fatalf("interrupted report: incomplete=%v with %d rows", rep.Incomplete, len(rep.Cells))
	}
	return rep
}

// fakeRows is a one-row stand-in for a cell's test-set probability rows.
func fakeRows(v ...float64) *tensor.Tensor { return tensor.FromSlice(v, 1, len(v)) }
