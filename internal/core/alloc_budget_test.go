package core_test

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/fed"
	"goldfish/internal/metrics"
	"goldfish/internal/model"
	"goldfish/internal/nn"
	"goldfish/internal/optim"
	"goldfish/internal/preset"
	"goldfish/internal/tensor"
)

// budgetTries is how many times allocsPerCall counts one call.
const budgetTries = 5

// allocsPerCall returns the fewest heap allocations one call of f makes over
// budgetTries counts by testing.AllocsPerRun, each after one warm-up call
// that sizes every grow-once buffer. The collector is off while a count
// runs: a cycle empties sync.Pools and allocates records of its own, a few
// per call on a schedule of its own. Anything else AllocsPerRun sees, such
// as another goroutine allocating, can only add, so the minimum is the
// path's own count.
func allocsPerCall(f func()) float64 {
	best := math.Inf(1)
	for range budgetTries {
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		best = min(best, testing.AllocsPerRun(1, f))
		debug.SetGCPercent(gc)
	}
	return best
}

// TestAllocationBudgets pins the heap allocations of each hot path a round
// runs: the matmul kernels, one training step, pooled evaluation, the MSE
// scorer, a client's round, aggregation and the engine's own round. A budget
// is the largest count measured over ten runs each at GOMAXPROCS 1, 2 and 4
// and with GOLDFISH_SERIAL=1, with no slack, so one more allocation per call
// fails its row. AllocsPerRun pins GOMAXPROCS to 1 while it counts, so the
// kernels take their serial path. To change a budget, edit its number here
// and give the reason with the change.
func TestAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	lenet := newBudgetWorkload(t, "mnist", data.ScalePaper)
	resnet := newBudgetWorkload(t, "cifar100", data.ScaleSmall)
	for _, c := range []struct {
		name   string
		budget float64
		setup  func(t *testing.T) func()
	}{
		{"matmul-kernels/lenet5", 0, lenetMatMuls},
		{"step/lenet5", 15, lenet.step},
		{"step/resnet", 17, resnet.step},
		{"accuracy/lenet5", 14, lenet.accuracy},
		{"accuracy/resnet", 22, resnet.accuracy},
		{"mse-scorer/resnet", 307, resnet.mseScorer},
		{"train-round/lenet5", 78, lenet.trainRound},
		{"train-round/resnet", 400, resnet.trainRound},
		{"train-round/distill", 94, lenet.distillRound},
		{"train-round/incompetent", 228, lenet.incompetentRound},
		{"train-round/retrain", 68, lenet.retrainRound},
		{"aggregate/fedavg", 1, aggregate(fed.FedAvg{})},
		{"aggregate/adaptive", 2, aggregate(fed.AdaptiveWeight{})},
		{"engine-round/local", 12, engineRound},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := allocsPerCall(c.setup(t))
			t.Logf("%v allocs/op, budget %v", got, c.budget)
			if got > c.budget {
				t.Errorf("%v allocs/op, over the budget of %v", got, c.budget)
			}
		})
	}
}

// budgetWorkload is a preset's model and optimiser over 200 training rows
// and 300 test rows of its data.
type budgetWorkload struct {
	p           preset.Preset
	train, test *data.Dataset
}

func newBudgetWorkload(t *testing.T, dataset string, scale data.Scale) budgetWorkload {
	t.Helper()
	p, err := preset.For(dataset, "", scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Spec.Train, p.Spec.Test = 200, 300
	train, test, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return budgetWorkload{p: p, train: train, test: test}
}

func (w budgetWorkload) net(t *testing.T) *nn.Network {
	t.Helper()
	net, err := model.Build(w.p.Model)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// step is one training step on the first batch, as core.TrainEpoch takes it.
func (w budgetWorkload) step(t *testing.T) func() {
	net := w.net(t)
	cfg := w.p.ClientConfig()
	opt, err := optim.NewSGD(cfg.Opt)
	if err != nil {
		t.Fatal(err)
	}
	params := net.Params()
	rows := make([]int, w.p.Batch)
	for i := range rows {
		rows[i] = i
	}
	labels := w.train.LabelsFor(rows)
	var x *tensor.Tensor
	return func() {
		x = tensor.SliceRowsInto(x, w.train.X, rows)
		_, grad := cfg.Loss.Hard.Compute(net.Forward(x, true), labels)
		net.ZeroGrads()
		net.BackwardParams(grad)
		opt.Step(params)
	}
}

func (w budgetWorkload) accuracy(t *testing.T) func() {
	net := w.net(t)
	return func() { metrics.Accuracy(net, w.test, 0) }
}

func (w budgetWorkload) mseScorer(t *testing.T) func() {
	score := metrics.NewMSEScorer(w.net(t), w.test, w.p.Batch)
	params := w.net(t).StateVector()
	return func() {
		if _, err := score(params); err != nil {
			t.Fatal(err)
		}
	}
}

// trainRound is one client round from a fixed global model; allocsPerCall
// counts rounds after the first, which has no teacher yet. The client's
// pool keeps its one network set, and the set's buffers, between rounds.
func (w budgetWorkload) trainRound(t *testing.T) func() {
	c, err := core.NewClient(0, w.p.ClientConfig(), w.train)
	if err != nil {
		t.Fatal(err)
	}
	return roundsOf(t, c, w.net(t).StateVector())
}

// distillRound is one Goldfish client round while another client deletes
// data: a ForgetAt of no rows before each call makes the round distil from
// the previous global, which with EarlyDelta > 0 also gives the Eq. 7
// reference.
func (w budgetWorkload) distillRound(t *testing.T) func() {
	cfg := w.p.ClientConfig()
	cfg.EarlyDelta = 0.05
	c, err := core.NewClient(0, cfg, w.train)
	if err != nil {
		t.Fatal(err)
	}
	round := roundsOf(t, c, w.net(t).StateVector())
	return func() {
		core.ForgetAt(c, nil, nil)
		round()
	}
}

// incompetentRound is one client round under the B3 procedure after its
// deletion: distillation from the frozen teacher on the retain rows, then
// the forget passes against the incompetent one.
func (w budgetWorkload) incompetentRound(t *testing.T) func() {
	c, err := core.IncompetentTeacher.NewClient(0, w.p.ClientConfig(), w.train)
	if err != nil {
		t.Fatal(err)
	}
	global := w.net(t).StateVector()
	forget := make([]int, 20)
	for i := range forget {
		forget[i] = i
	}
	core.ForgetAt(c, forget, global)
	return roundsOf(t, c, global)
}

// retrainRound is one client round under the B1 procedure: hard-loss
// descent with an optimizer kept across rounds.
func (w budgetWorkload) retrainRound(t *testing.T) func() {
	c, err := core.Retrain.NewClient(0, w.p.ClientConfig(), w.train)
	if err != nil {
		t.Fatal(err)
	}
	return roundsOf(t, c, w.net(t).StateVector())
}

// roundsOf returns a call that runs c's next round from global.
func roundsOf(t *testing.T, c *core.Client, global []float64) func() {
	round := 0
	return func() {
		if _, err := c.TrainRound(context.Background(), round, global); err != nil {
			t.Fatal(err)
		}
		round++
	}
}

// lenetMatMuls runs the four matmul kernels at the shapes a LeNet-5 step on
// 28×28 inputs and batch 100 issues: the forward of a first- and a
// second-layer convolution tile and the first one's weight gradient, and the
// first dense layer's forward and weight gradient.
func lenetMatMuls(*testing.T) func() {
	rng := rand.New(rand.NewSource(1))
	m := func(r, c int) *tensor.Tensor { return tensor.New(r, c).RandNormal(rng, 0, 1) }
	conv1W, conv1Cols, conv1Out := m(6, 25), m(25, 4704), m(6, 4704)
	conv2W, conv2Cols, conv2Out := m(16, 150), m(150, 800), m(16, 800)
	conv1DW := m(6, 25)
	x, denseW, denseOut, denseDW := m(100, 400), m(120, 400), m(100, 120), m(120, 400)
	return func() {
		tensor.MatMulInto(conv1Out, conv1W, conv1Cols)
		tensor.MatMulInto(conv2Out, conv2W, conv2Cols)
		tensor.MatMulTransBAccInto(conv1DW, conv1Out, conv1Cols)
		tensor.MatMulTransBInto(denseOut, x, denseW)
		tensor.MatMulTransAInto(denseDW, denseOut, x)
	}
}

// budgetUpdates returns five clients' updates of a LeNet-5-sized vector.
func budgetUpdates() []fed.ModelUpdate {
	updates := make([]fed.ModelUpdate, 5)
	for i := range updates {
		params := make([]float64, 51902)
		for j := range params {
			params[j] = float64(i*j%7) / 7
		}
		updates[i] = fed.ModelUpdate{ClientID: i, Params: params, NumSamples: 100 + i, MSE: 0.1 * float64(i+1)}
	}
	return updates
}

func aggregate(agg fed.Aggregator) func(*testing.T) func() {
	return func(t *testing.T) func() {
		updates := budgetUpdates()
		return func() {
			if _, err := agg.Aggregate(updates); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// fixedTrainer uploads the same update every round.
type fixedTrainer struct{ u fed.ModelUpdate }

func (f fixedTrainer) TrainRound(context.Context, int, []float64) (fed.ModelUpdate, error) {
	return f.u, nil
}

// engineRound is one RunRound over a LocalTransport of five trainers that do
// no work, so what it counts is the engine's and the transport's own cost.
func engineRound(t *testing.T) func() {
	updates := budgetUpdates()
	trainers := make([]fed.LocalTrainer, len(updates))
	for i, u := range updates {
		trainers[i] = fixedTrainer{u}
	}
	e, err := fed.NewEngine(fed.EngineConfig{}, make([]float64, len(updates[0].Params)), fed.NewLocalTransport(trainers))
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := e.RunRound(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
