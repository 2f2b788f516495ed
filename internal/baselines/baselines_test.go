package baselines

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"goldfish/internal/data"
	"goldfish/internal/fed"
	"goldfish/internal/metrics"
	"goldfish/internal/model"
	"goldfish/internal/optim"
)

func testScenario() Scenario {
	return Scenario{
		Model:       model.Config{Arch: model.ArchMLP, InC: 1, InH: 12, InW: 12, Classes: 10, Seed: 1},
		Opt:         optim.SGDConfig{LR: 0.1, Momentum: 0.9, ClipNorm: 5},
		LocalEpochs: 3,
		BatchSize:   32,
		Seed:        1,
	}
}

// poisonedSetup builds partitions with a backdoored client 0 and returns
// everything the baseline comparisons need.
func poisonedSetup(t *testing.T) (parts []*data.Dataset, removed map[int][]int,
	test, triggered *data.Dataset, bd data.BackdoorConfig) {
	t.Helper()
	spec, err := data.SpecMNIST(data.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	train, testSet, err := data.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	parts, err = data.PartitionIID(train, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	bd = data.DefaultBackdoor()
	rows, err := bd.Poison(parts[0], 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	trig, err := bd.TriggerCopy(testSet)
	if err != nil {
		t.Fatal(err)
	}
	return parts, map[int][]int{0: rows}, testSet, trig, bd
}

func evalState(t *testing.T, sc Scenario, state []float64, test *data.Dataset) float64 {
	t.Helper()
	net, err := model.Build(sc.Model)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetStateVector(state); err != nil {
		t.Fatal(err)
	}
	return metrics.Accuracy(net, test, 0)
}

func evalASR(t *testing.T, sc Scenario, state []float64, triggered *data.Dataset, target int) float64 {
	t.Helper()
	net, err := model.Build(sc.Model)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetStateVector(state); err != nil {
		t.Fatal(err)
	}
	return metrics.AttackSuccessRate(net, triggered, target, 0)
}

// plainFederation builds one B1 (or, with precond, B2) trainer per partition,
// applies the per-client removals through Forget, and returns the trainers
// with the freshly initialized global model a from-scratch retrain starts at.
func plainFederation(t *testing.T, sc Scenario, parts []*data.Dataset, removed map[int][]int, precond bool) ([]fed.LocalTrainer, []float64) {
	t.Helper()
	trainers := make([]fed.LocalTrainer, len(parts))
	for i, p := range parts {
		tr, err := NewPlainTrainer(i, sc, p, precond)
		if err != nil {
			t.Fatal(err)
		}
		if rows := removed[i]; len(rows) > 0 {
			if err := tr.Forget(rows); err != nil {
				t.Fatal(err)
			}
		}
		trainers[i] = tr
	}
	initial, err := ReinitVector(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	return trainers, initial
}

// runRounds drives trainers through the shared round engine — the only way
// the baselines run — and returns the final global state.
func runRounds(ctx context.Context, trainers []fed.LocalTrainer, initial []float64, rounds int, onRound func(fed.RoundInfo)) ([]float64, error) {
	e, err := fed.NewEngine(fed.EngineConfig{OnRound: onRound}, initial, fed.NewLocalTransport(trainers))
	if err != nil {
		return nil, err
	}
	if err := e.Run(ctx, rounds); err != nil {
		return nil, err
	}
	return e.Global(), nil
}

// mustRun is runRounds for tests that expect success.
func mustRun(t *testing.T, trainers []fed.LocalTrainer, initial []float64, rounds int) []float64 {
	t.Helper()
	state, err := runRounds(context.Background(), trainers, initial, rounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return state
}

func TestScenarioValidate(t *testing.T) {
	if err := testScenario().Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
	bad := testScenario()
	bad.LocalEpochs = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 epochs accepted")
	}
	bad = testScenario()
	bad.BatchSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 batch accepted")
	}
	bad = testScenario()
	bad.Opt.LR = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid optimizer accepted")
	}
}

func TestOriginLearnsBackdoor(t *testing.T) {
	parts, _, test, triggered, bd := poisonedSetup(t)
	sc := testScenario()
	// Origin = B1 with no removals: trains on the poisoned data.
	trainers, initial := plainFederation(t, sc, parts, nil, false)
	state := mustRun(t, trainers, initial, 8)
	acc := evalState(t, sc, state, test)
	asr := evalASR(t, sc, state, triggered, bd.TargetLabel)
	if acc < 0.35 {
		t.Errorf("origin accuracy %g too low", acc)
	}
	if asr < 0.4 {
		t.Errorf("origin ASR %g too low — backdoor should take hold", asr)
	}
}

func TestB1RemovesBackdoor(t *testing.T) {
	parts, removed, test, triggered, bd := poisonedSetup(t)
	sc := testScenario()
	trainers, initial := plainFederation(t, sc, parts, removed, false)
	var rounds int
	state, err := runRounds(context.Background(), trainers, initial, 8, func(fed.RoundInfo) { rounds++ })
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 8 {
		t.Errorf("round hook fired %d times, want 8", rounds)
	}
	acc := evalState(t, sc, state, test)
	asr := evalASR(t, sc, state, triggered, bd.TargetLabel)
	if acc < 0.35 {
		t.Errorf("B1 accuracy %g too low", acc)
	}
	if asr > 0.25 {
		t.Errorf("B1 ASR %g too high after retraining without poison", asr)
	}
}

func TestB2ConvergesAndRemovesBackdoor(t *testing.T) {
	parts, removed, test, triggered, bd := poisonedSetup(t)
	sc := testScenario()
	sc.Opt.LR = 0.01 // preconditioned steps are larger; lower LR
	trainers, initial := plainFederation(t, sc, parts, removed, true)
	state := mustRun(t, trainers, initial, 8)
	acc := evalState(t, sc, state, test)
	asr := evalASR(t, sc, state, triggered, bd.TargetLabel)
	if acc < 0.35 {
		t.Errorf("B2 accuracy %g too low", acc)
	}
	if asr > 0.25 {
		t.Errorf("B2 ASR %g too high", asr)
	}
}

func TestB2FasterThanB1EarlyOn(t *testing.T) {
	parts, removed, test, _, _ := poisonedSetup(t)
	sc := testScenario()
	sc.Opt.LR = 0.01
	sc.LocalEpochs = 1
	trainers, initial := plainFederation(t, sc, parts, removed, true)
	b2 := mustRun(t, trainers, initial, 2)
	trainers, initial = plainFederation(t, sc, parts, removed, false)
	b1 := mustRun(t, trainers, initial, 2)
	accB2 := evalState(t, sc, b2, test)
	accB1 := evalState(t, sc, b1, test)
	if accB2 <= accB1 {
		t.Errorf("FIM preconditioning should speed early recovery: B2 %g vs B1 %g", accB2, accB1)
	}
}

func TestB3UnlearnsFromContaminatedModel(t *testing.T) {
	parts, removed, test, triggered, bd := poisonedSetup(t)
	sc := testScenario()
	// Build the contaminated origin first.
	trainers, initial := plainFederation(t, sc, parts, nil, false)
	origin := mustRun(t, trainers, initial, 8)
	asrOrigin := evalASR(t, sc, origin, triggered, bd.TargetLabel)
	if asrOrigin < 0.4 {
		t.Fatalf("origin ASR %g too low for a meaningful B3 test", asrOrigin)
	}
	// B3 starts from the contaminated model, which is also the deleting
	// client's competent teacher.
	for i, p := range parts {
		tr, err := NewIncompetentTrainer(i, sc, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		if rows := removed[i]; len(rows) > 0 {
			if err := tr.Forget(rows, origin); err != nil {
				t.Fatal(err)
			}
		}
		trainers[i] = tr
	}
	state := mustRun(t, trainers, origin, 8)
	acc := evalState(t, sc, state, test)
	asr := evalASR(t, sc, state, triggered, bd.TargetLabel)
	// B3 is the weakest unlearner in the paper's tables as well (its ASR
	// stays above B1's and ours); require a clear drop, not elimination.
	if asr > asrOrigin*0.6 {
		t.Errorf("B3 ASR %g did not drop enough from origin %g", asr, asrOrigin)
	}
	if acc < 0.3 {
		t.Errorf("B3 accuracy %g too low", acc)
	}
}

func TestBaselineErrors(t *testing.T) {
	parts, removed, _, _, _ := poisonedSetup(t)
	bad := testScenario()
	bad.LocalEpochs = 0
	if _, err := NewPlainTrainer(0, bad, parts[0], false); err == nil {
		t.Error("invalid scenario accepted")
	}
	sc := testScenario()
	if _, err := NewPlainTrainer(0, sc, nil, false); err == nil {
		t.Error("client without data accepted")
	}
	plain, err := NewPlainTrainer(1, sc, parts[1], false)
	if err != nil {
		t.Fatal(err)
	}
	// Removing everything from a client must fail.
	all := make([]int, parts[1].Len())
	for i := range all {
		all[i] = i
	}
	if err := plain.Forget(all); err == nil {
		t.Error("client with no remaining data accepted")
	}
	if _, err := NewIncompetentTrainer(0, sc, parts[0], 0); err == nil {
		t.Error("B3 with zero temperature accepted")
	}
	b3, err := NewIncompetentTrainer(0, sc, parts[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := b3.Forget(removed[0], nil); err == nil {
		t.Error("B3 without contaminated model accepted")
	}
	// A row listed twice would be copied into Df twice and forgotten at
	// double weight; the request is rejected and nothing is removed.
	if err := b3.Forget([]int{5, 5}, []float64{1}); err == nil {
		t.Error("B3 accepted a row listed twice in one request")
	}
	if b3.NumSamples() != parts[0].Len() {
		t.Errorf("rejected request removed rows: %d samples, want %d", b3.NumSamples(), parts[0].Len())
	}
}

// TestForgetByOriginalRow: both trainers take original-row indices
// on every request, so after {0,1,2} and then {10} the training view is the
// original dataset minus exactly those four rows, in original order — a
// trainer indexing its shrunken view would have dropped original row 13
// on the second request. Rejected requests leave the view alone.
func TestForgetByOriginalRow(t *testing.T) {
	parts, _, _, _, _ := poisonedSetup(t)
	orig, sc := parts[1], testScenario()
	plain, err := NewPlainTrainer(1, sc, orig, false)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := NewIncompetentTrainer(1, sc, orig, 3)
	if err != nil {
		t.Fatal(err)
	}
	global, err := ReinitVector(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]int{{0, 1, 2}, {10}} {
		if err := plain.Forget(rows); err != nil {
			t.Fatal(err)
		}
		if err := b3.Forget(rows, global); err != nil {
			t.Fatal(err)
		}
	}
	for _, rows := range [][]int{{1}, {11, 10}, {12, orig.Len()}, {12, 12}, {-1}} {
		if err := plain.Forget(rows); err == nil {
			t.Errorf("B1 accepted rows %v", rows)
		}
		if err := b3.Forget(rows, global); err == nil {
			t.Errorf("B3 accepted rows %v", rows)
		}
	}
	want := orig.Remove([]int{0, 1, 2, 10})
	for name, view := range map[string]*data.Dataset{"B1": plain.ds, "B3 retain": b3.dr} {
		if !reflect.DeepEqual(view.Y, want.Y) || !reflect.DeepEqual(view.X.Data(), want.X.Data()) {
			t.Errorf("%s view is not the original rows minus {0,1,2,10}", name)
		}
	}
	forgot := orig.Subset([]int{0, 1, 2, 10})
	if !reflect.DeepEqual(b3.df.Y, forgot.Y) || !reflect.DeepEqual(b3.df.X.Data(), forgot.X.Data()) {
		t.Error("B3 forget set is not original rows {0,1,2,10}")
	}
	if plain.NumSamples() != orig.Len()-4 || b3.NumSamples() != orig.Len()-4 {
		t.Errorf("NumSamples = %d / %d, want %d", plain.NumSamples(), b3.NumSamples(), orig.Len()-4)
	}
}

func TestBaselineCancellation(t *testing.T) {
	parts, removed, _, _, _ := poisonedSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := testScenario()
	trainers, initial := plainFederation(t, sc, parts, removed, false)
	if _, err := runRounds(ctx, trainers, initial, 5, nil); err == nil {
		t.Error("cancelled run should fail")
	}
	// The trainers themselves stop too, not just the engine between rounds.
	if _, err := trainers[0].TrainRound(ctx, 0, initial); err == nil {
		t.Error("cancelled B1 round should fail")
	}
	b3, err := NewIncompetentTrainer(0, sc, parts[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b3.TrainRound(ctx, 0, initial); err == nil {
		t.Error("cancelled B3 round should fail")
	}
}
