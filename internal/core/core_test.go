package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"goldfish/internal/data"
	"goldfish/internal/fed"
	"goldfish/internal/loss"
	"goldfish/internal/model"
	"goldfish/internal/optim"
)

// testConfig returns a fast configuration for tiny synthetic data.
func testConfig(classes int) Config {
	return Config{
		Model:       model.Config{Arch: model.ArchMLP, InC: 1, InH: 12, InW: 12, Classes: classes, Seed: 1},
		Loss:        loss.NewGoldfish(),
		Opt:         optim.SGDConfig{LR: 0.1, Momentum: 0.9, ClipNorm: 5},
		LocalEpochs: 3,
		BatchSize:   32,
		TempAlpha:   1,
		Seed:        1,
	}
}

func tinyMNIST(t *testing.T) (train, test *data.Dataset) {
	t.Helper()
	spec, err := data.SpecMNIST(data.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err = data.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(10).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := testConfig(10)
	bad.LocalEpochs = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 epochs accepted")
	}
	bad = testConfig(10)
	bad.BatchSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 batch accepted")
	}
	bad = testConfig(10)
	bad.EarlyDelta = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative delta accepted")
	}
	bad = testConfig(10)
	bad.AdaptiveTemp = true
	bad.TempAlpha = 0
	if err := bad.Validate(); err == nil {
		t.Error("adaptive temp without alpha accepted")
	}
}

func TestAdaptiveTemperature(t *testing.T) {
	// Eq. 11 at |Dr|=90, |Df|=10: T = α·T0·exp(−0.9).
	got := AdaptiveTemperature(1, 3, 90, 10)
	want := 3 * math.Exp(-0.9)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("T = %g, want %g", got, want)
	}
	// Clamped at 1 when the formula would sharpen labels.
	if got := AdaptiveTemperature(1, 1, 100, 1); got != 1 {
		t.Errorf("T = %g, want clamp at 1", got)
	}
	// Larger removed fraction raises the temperature (more smoothing).
	small := AdaptiveTemperature(1, 5, 95, 5)
	large := AdaptiveTemperature(1, 5, 50, 50)
	if large <= small {
		t.Errorf("T should grow with removed fraction: %g vs %g", small, large)
	}
	// Empty data falls back to α·T0 (clamped).
	if got := AdaptiveTemperature(1, 3, 0, 0); got != 3 {
		t.Errorf("empty data T = %g, want 3", got)
	}
}

func TestNewClientErrors(t *testing.T) {
	train, _ := tinyMNIST(t)
	if _, err := NewClient(0, testConfig(10), nil); err == nil {
		t.Error("nil dataset accepted")
	}
	bad := testConfig(10)
	bad.BatchSize = 0
	if _, err := NewClient(0, bad, train); err == nil {
		t.Error("invalid config accepted")
	}
}

// procedures are the four built-in procedures by strategy name.
var procedures = []struct {
	name string
	proc Procedure
}{
	{"goldfish", Goldfish},
	{"retrain", Retrain},
	{"fisher", Fisher},
	{"incompetent-teacher", IncompetentTeacher},
}

// freshGlobal is the state vector of a model built with the config's
// architecture at the given seed.
func freshGlobal(t *testing.T, cfg Config, seed int64) []float64 {
	t.Helper()
	mcfg := cfg.Model
	mcfg.Seed = seed
	net, err := model.Build(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	return net.StateVector()
}

// TestClientUpdateDependsOnGlobal: under every procedure a client's upload
// is a function of the global model it was sent, in the plain round and in
// the deletion round alike. Two identically seeded clients on the same data
// return different parameters under different globals, and bit-identical
// ones under equal globals.
func TestClientUpdateDependsOnGlobal(t *testing.T) {
	train, _ := tinyMNIST(t)
	cfg := testConfig(10)
	globals := [][]float64{freshGlobal(t, cfg, cfg.Model.Seed), freshGlobal(t, cfg, cfg.Model.Seed+1)}
	for _, p := range procedures {
		t.Run(p.name, func(t *testing.T) {
			// run returns the client's plain-round and deletion-round
			// uploads when both rounds are sent global.
			run := func(global []float64) [2][]float64 {
				c, err := p.proc.NewClient(0, cfg, train)
				if err != nil {
					t.Fatal(err)
				}
				var out [2][]float64
				for round := range out {
					if round == 1 {
						ForgetAt(c, []int{0, 1, 2, 3}, global)
					}
					u, err := c.TrainRound(context.Background(), round, global)
					if err != nil {
						t.Fatal(err)
					}
					out[round] = u.Params
				}
				return out
			}
			a, again, b := run(globals[0]), run(globals[0]), run(globals[1])
			for round := range a {
				if bitsEqual(a[round], b[round]) {
					t.Errorf("round %d: update identical under two different globals", round)
				}
				if !bitsEqual(a[round], again[round]) {
					t.Errorf("round %d: update differs under equal globals", round)
				}
			}
		})
	}
}

// TestRejectedGlobalChangesNothing: a global model the client cannot load
// is rejected without touching the client, so its next round, sent a valid
// global, uploads bit for bit what a client that never saw the bad call
// uploads. Under the Goldfish procedure the rejected vector once became the
// next round's teacher, and that round failed loading it.
func TestRejectedGlobalChangesNothing(t *testing.T) {
	train, _ := tinyMNIST(t)
	cfg := testConfig(10)
	g0, g1 := freshGlobal(t, cfg, 1), freshGlobal(t, cfg, 2)
	for _, p := range procedures {
		t.Run(p.name, func(t *testing.T) {
			run := func(bad bool) []float64 {
				c, err := p.proc.NewClient(0, cfg, train)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				if _, err := c.TrainRound(ctx, 0, g0); err != nil {
					t.Fatal(err)
				}
				if bad {
					if _, err := c.TrainRound(ctx, 1, g1[:len(g1)-1]); err == nil {
						t.Fatal("a global one value short was accepted")
					}
				}
				u, err := c.TrainRound(ctx, 1, g1)
				if err != nil {
					t.Fatalf("round after a rejected global: %v", err)
				}
				return u.Params
			}
			if !bitsEqual(run(true), run(false)) {
				t.Error("a rejected global changed the next round's update")
			}
		})
	}
}

// TestFailedRoundKeepsTeacher: the global of a round that fails after
// loading it (cancelled, or a straggler cut off by the round timeout) does
// not become the next round's teacher. Two clients run round 0, delete
// rows, fail round 1 in the same way under different globals and retry it
// under the same one: their uploads must be bit-identical. A deletion
// round's global is a fresh model, and the Goldfish client once kept the
// failed round's global as its teacher, so its retry distilled from a
// random network.
func TestFailedRoundKeepsTeacher(t *testing.T) {
	train, _ := tinyMNIST(t)
	cfg := testConfig(10)
	g0, fresh, g2 := freshGlobal(t, cfg, 1), freshGlobal(t, cfg, 2), freshGlobal(t, cfg, 3)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range procedures {
		t.Run(p.name, func(t *testing.T) {
			retry := func(failed []float64) []float64 {
				c, err := p.proc.NewClient(0, cfg, train)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.TrainRound(context.Background(), 0, g0); err != nil {
					t.Fatal(err)
				}
				ForgetAt(c, []int{0, 1, 2}, g0)
				if _, err := c.TrainRound(cancelled, 1, failed); err == nil {
					t.Fatal("a round under a cancelled context succeeded")
				}
				u, err := c.TrainRound(context.Background(), 1, g2)
				if err != nil {
					t.Fatal(err)
				}
				return u.Params
			}
			if !bitsEqual(retry(fresh), retry(g0)) {
				t.Error("the global of a failed round changed its retry's update")
			}
		})
	}
}

func bitsEqual(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestTrainEpochLowersReferenceLoss: three epochs of plain training lower
// the mean hard loss the round-start teacher pass reports as the Eq. 7
// reference, and that reference is 0 over no rows.
func TestTrainEpochLowersReferenceLoss(t *testing.T) {
	train, _ := tinyMNIST(t)
	cfg := testConfig(10)
	net, err := model.Build(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, train.Len())
	for i := range idx {
		idx[i] = i
	}
	reference := func(idx []int) float64 {
		e := &epoch{teacher: net, ds: train, drIdx: idx, batchSize: cfg.BatchSize, buffers: new(buffers)}
		l, err := e.forwardTeachers(context.Background(), cfg.Loss.Hard)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	before := reference(idx)
	opt, err := optim.NewSGD(cfg.Opt)
	if err != nil {
		t.Fatal(err)
	}
	gl := cfg.Loss
	gl.MuD = 0
	rng := rand.New(rand.NewSource(7))
	for e := 0; e < 3; e++ {
		if _, err := TrainEpoch(context.Background(), net, nil, train, idx, nil, gl, opt, cfg.BatchSize, rng); err != nil {
			t.Fatal(err)
		}
	}
	after := reference(idx)
	if after >= before {
		t.Errorf("training did not reduce loss: %g → %g", before, after)
	}
	if got := reference(nil); got != 0 {
		t.Errorf("reference over no rows = %g, want 0", got)
	}
}

// TestClientAsFedTrainer exercises Client through the generic fed.Engine,
// confirming the interfaces compose.
func TestClientAsFedTrainer(t *testing.T) {
	train, _ := tinyMNIST(t)
	parts, err := data.PartitionIID(train, 2, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(10)
	var trainers []fed.LocalTrainer
	for i, p := range parts {
		c, err := NewClient(i, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		trainers = append(trainers, c)
	}
	initNet, err := model.Build(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := fed.NewEngine(fed.EngineConfig{}, initNet.StateVector(), fed.NewLocalTransport(trainers))
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
}

// randSource is a tiny helper for tests that need a seeded RNG.
func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
