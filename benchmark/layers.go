package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"goldfish"
	"goldfish/internal/baselines"
	"goldfish/internal/core"
	"goldfish/internal/fed"
	"goldfish/internal/loss"
	"goldfish/internal/metrics"
	"goldfish/internal/nn"
	"goldfish/internal/optim"
	"goldfish/internal/tensor"
)

// replayInput is the workload's own shapes: the layers below are timed by
// calling their exported functions from here at exactly these sizes, so a
// per-layer number always refers to the work the end-to-end run did.
type replayInput struct {
	cfg       goldfish.Config   // model, loss, optimizer, epochs, batch
	part      *goldfish.Dataset // one client's local data
	test      *goldfish.Dataset
	clients   int
	agg       goldfish.Aggregator
	state     []float64 // a global state vector of the workload's size
	scorer    bool      // the server-side MSE scorer is on the round path
	deletions bool      // the workload issues deletions (distillation, forget steps)
	baseline  bool      // the retrain reference path (baselines.PlainTrainer) runs
}

// mmShape is one matrix product a training step issues. kind selects the
// kernel: 0 MatMul (m,k)·(k,n), 1 MatMulTransA (k,m)ᵀ·(k,n),
// 2 MatMulTransB (m,k)·(n,k)ᵀ.
type mmShape struct{ kind, m, n, k int }

var mmKinds = []string{"tensor.matmul", "tensor.matmul_transa", "tensor.matmul_transb"}

// convShapes lists the three products of one Conv2D step: forward W·cols,
// backward dW = dprod·colsᵀ and dcols = Wᵀ·dprod.
func convShapes(outC, patch, cols int) []mmShape {
	return []mmShape{{0, outC, cols, patch}, {2, outC, patch, cols}, {1, patch, cols, outC}}
}

// layerShapes derives the matrix products layer l issues for input x and
// output y. A Residual block hides its convolutions, so they are rebuilt
// from its in/out shapes and the block's documented structure (two 3×3
// convolutions, plus a 1×1 projection when the shape changes).
func layerShapes(l nn.Layer, x, y *tensor.Tensor) []mmShape {
	switch l := l.(type) {
	case *nn.Conv2D:
		return convShapes(l.OutC, l.InC*l.Kernel*l.Kernel, y.Dim(0)*y.Dim(2)*y.Dim(3))
	case *nn.Dense:
		batch := x.Dim(0)
		return []mmShape{{2, batch, l.Out, l.In}, {1, l.Out, l.In, batch}, {0, batch, l.In, l.Out}}
	case *nn.Residual:
		inC, outC, cols := x.Dim(1), y.Dim(1), y.Dim(0)*y.Dim(2)*y.Dim(3)
		shapes := append(convShapes(outC, inC*9, cols), convShapes(outC, outC*9, cols)...)
		if inC != outC || x.Dim(2) != y.Dim(2) {
			shapes = append(shapes, convShapes(outC, inC, cols)...)
		}
		return shapes
	}
	return nil
}

// layerName maps a layer to its metric group (nn.other, which no metric
// reports, for layers too cheap to matter, i.e. Flatten).
func layerName(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "nn.conv2d"
	case *nn.Dense:
		return "nn.dense"
	case *nn.BatchNorm2D:
		return "nn.batchnorm"
	case *nn.Residual:
		return "nn.residual"
	case *nn.MaxPool2D, *nn.GlobalAvgPool2D:
		return "nn.pool"
	case *nn.ReLU:
		return "nn.relu"
	}
	return "nn.other"
}

// replayLayers measures every per-layer metric that is a direct call into
// one package, each inside a harness span. It runs after the measured
// windows, so nothing here can disturb an end-to-end number.
func (b *bench) replayLayers(ctx context.Context, in replayInput) error {
	root := b.rec.begin("harness/replay", 0, -1)
	defer b.rec.end(root)
	rec := b.rec
	rng := rand.New(rand.NewSource(b.opt.seed))

	var net *nn.Network
	var err error
	buildS := rec.timed("model.build", root, -1, func() { net, err = goldfish.BuildModel(in.cfg.Model) })
	if err != nil {
		return err
	}
	b.setLayer("model.build_ms", buildS*1e3)
	opt, err := optim.NewSGD(in.cfg.Opt)
	if err != nil {
		return err
	}
	batch := in.cfg.BatchSize
	if batch > in.part.Len() {
		batch = in.part.Len()
	}
	rows := make([]int, batch)
	for i := range rows {
		rows[i] = i
	}
	labels := in.part.LabelsFor(rows)
	layers := net.Layers()

	// One training step, chaining Layers() by hand so each layer's forward
	// and backward get their own span. acc sums seconds per span name.
	acc := map[string]float64{}
	var shapes []mmShape
	var logits *tensor.Tensor
	step := func(rec *recorder, collect bool) {
		sid := rec.begin("core.step", root, -1)
		var x *tensor.Tensor
		acc["tensor.slice_rows"] += rec.timed("tensor.slice_rows", sid, -1, func() { x = tensor.SliceRows(in.part.X, rows) })
		fwd, t0 := rec.begin("nn.step_fwd", sid, -1), time.Now()
		logits = x
		for _, l := range layers {
			prev := logits
			acc[layerName(l)+".fwd"] += rec.timed(layerName(l)+".fwd", fwd, -1, func() { logits = l.Forward(prev, true) })
			if collect {
				shapes = append(shapes, layerShapes(l, prev, logits)...)
			}
		}
		acc["nn.step_fwd"] += time.Since(t0).Seconds()
		rec.end(fwd)
		var grad *tensor.Tensor
		acc["loss.hard"] += rec.timed("loss.hard", sid, -1, func() { _, grad = in.cfg.Loss.Hard.Compute(logits, labels) })
		bwd, t0 := rec.begin("nn.step_bwd", sid, -1), time.Now()
		net.ZeroGrads()
		for i := len(layers) - 1; i >= 0; i-- {
			l, dout := layers[i], grad
			acc[layerName(l)+".bwd"] += rec.timed(layerName(l)+".bwd", bwd, -1, func() { grad = l.Backward(dout) })
		}
		acc["nn.step_bwd"] += time.Since(t0).Seconds()
		rec.end(bwd)
		acc["optim.step"] += rec.timed("optim.step", sid, -1, func() { opt.Step(net.Params()) })
		rec.end(sid)
	}
	step(nil, true) // warm-up: sizes the layers' scratch, collects the shapes
	// Enough repetitions to time a second of steps: a dozen at the paper's
	// shapes, sixty at the smallest preset's, where a step is a few
	// milliseconds. With fewer, a slow stretch of the machine that covers the
	// steps and not the matrix products replayed after them (or the reverse)
	// moves tensor.matmul_share and core.step_coverage by a tenth.
	reps := 1
	if !b.opt.quick {
		reps = min(max(int(1/(acc["nn.step_fwd"]+acc["nn.step_bwd"])), 8), 60)
	}
	clear(acc)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < reps; i++ {
		step(rec, false)
	}
	runtime.ReadMemStats(&ms1)
	per := func(name string) float64 { return acc[name] / float64(reps) }
	for _, l := range []string{"conv2d", "dense", "batchnorm", "residual", "pool", "relu"} {
		b.setLayer("nn."+l+".fwd_ms", per("nn."+l+".fwd")*1e3)
		b.setLayer("nn."+l+".bwd_ms", per("nn."+l+".bwd")*1e3)
	}
	b.setLayer("nn.step_fwd_ms", per("nn.step_fwd")*1e3)
	b.setLayer("nn.step_bwd_ms", per("nn.step_bwd")*1e3)
	b.setLayer("tensor.slice_rows_us", per("tensor.slice_rows")*1e6)
	b.setLayer("loss.hard_us", per("loss.hard")*1e6)
	b.setLayer("optim.step_us", per("optim.step")*1e6)
	b.setLayer("nn.allocs_per_step", float64(ms1.Mallocs-ms0.Mallocs)/float64(reps))
	b.setLayer("nn.alloc_kb_per_step", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(reps))
	stepS := per("tensor.slice_rows") + per("nn.step_fwd") + per("loss.hard") + per("nn.step_bwd") + per("optim.step")

	// The step's matrix products replayed alone: GFLOP/s per kernel
	// (FLOP-weighted over the shapes) and their share of the step.
	flops, secs := replayMatmuls(rec, root, shapes, reps, rng)
	for k, name := range mmKinds {
		if secs[k] > 0 {
			b.setLayer(name+"_gflops", flops[k]/secs[k]/1e9)
		}
	}
	b.setLayer("tensor.matmul_share", (secs[0]+secs[1]+secs[2])/float64(reps)/(per("nn.step_fwd")+per("nn.step_bwd")))

	// mean times fn reps times, each in its own span, and returns the mean.
	mean := func(name string, fn func()) float64 {
		var sum float64
		for i := 0; i < reps; i++ {
			sum += rec.timed(name, root, -1, fn)
		}
		return sum / float64(reps)
	}
	x := tensor.SliceRows(in.part.X, rows)
	b.setLayer("nn.eval_fwd_ms", mean("nn.eval_fwd", func() { net.Forward(x, false) })*1e3)
	b.setLayer("nn.state_vector_us", mean("nn.state_vector", func() { err = net.SetStateVector(net.StateVector()) })*1e6)
	if err != nil {
		return err
	}
	if in.deletions {
		teacherLogits := logits.Clone()
		b.setLayer("loss.distill_us", mean("loss.distill", func() { loss.Distillation(logits, teacherLogits, in.cfg.Loss.Temp) })*1e6)
		b.setLayer("loss.forget_us", mean("loss.forget", func() { in.cfg.Loss.ForgetStep(logits, labels) })*1e6)
	}

	// One local epoch through core.TrainEpoch, the layer above the step:
	// step_coverage says how much of it the step's parts account for.
	all := make([]int, in.part.Len())
	for i := range all {
		all[i] = i
	}
	plain := in.cfg.Loss
	plain.MuD = 0
	steps := float64(len(all)) / float64(batch)
	epochs := max(1, int(float64(reps)/steps)) // about as many steps as the step replay ran
	epoch := func(name string, teacher *nn.Network, gl loss.Goldfish) (float64, error) {
		var sum float64
		for i := 0; i < epochs; i++ {
			sum += rec.timed(name, root, -1, func() {
				_, err = core.TrainEpoch(ctx, net, teacher, in.part, all, nil, gl, opt, in.cfg.BatchSize, rng)
			})
			if err != nil {
				return 0, err
			}
		}
		return sum / float64(epochs), nil
	}
	epochS, err := epoch("core.train_epoch", nil, plain)
	if err != nil {
		return err
	}
	b.setLayer("core.train_epoch_ms", epochS*1e3)
	b.setLayer("core.step_coverage", stepS*steps/epochS)
	if in.deletions {
		distillS, err := epoch("core.train_epoch_distill", net.Clone(), in.cfg.Loss)
		if err != nil {
			return err
		}
		b.setLayer("core.train_epoch_distill_ms", distillS*1e3)
	}

	// One client's whole round, alone: the second of two rounds, so the
	// teacher of the previous global exists as it does in steady state.
	client, err := core.NewClient(0, in.cfg, in.part)
	if err != nil {
		return err
	}
	roundS, err := secondRound(ctx, rec, root, "core.client_round", client, in.state)
	if err != nil {
		return err
	}
	b.setLayer("core.client_round_ms", roundS*1e3)
	b.setLayer("core.epochs_run", float64(client.LastEpochs()))
	if in.baseline {
		pt, err := baselines.NewPlainTrainer(0, baselines.Scenario{
			Model: in.cfg.Model, Opt: in.cfg.Opt, LocalEpochs: in.cfg.LocalEpochs,
			BatchSize: in.cfg.BatchSize, Seed: in.cfg.Seed,
		}, in.part, false)
		if err != nil {
			return err
		}
		roundS, err := secondRound(ctx, rec, root, "baselines.client_round", pt, in.state)
		if err != nil {
			return err
		}
		b.setLayer("baselines.client_round_ms", roundS*1e3)
	}

	// Aggregation alone at the workload's state size × clients.
	updates := make([]fed.ModelUpdate, in.clients)
	for i := range updates {
		updates[i] = fed.ModelUpdate{ClientID: i, Params: in.state, NumSamples: in.part.Len(), MSE: 0.1}
	}
	b.setLayer("fed.aggregate_us", mean("fed.aggregate", func() { _, err = in.agg.Aggregate(updates) })*1e6)
	if err != nil {
		return err
	}
	b.setLayer("fed.bytes_per_round", float64(2*8*len(in.state)*in.clients))

	b.setLayer("metrics.accuracy_ms", rec.timed("metrics.accuracy", root, -1, func() { metrics.Accuracy(net, in.test, 0) })*1e3)
	if in.scorer {
		score := metrics.NewMSEScorer(net, in.test, in.cfg.BatchSize)
		scoreS := rec.timed("metrics.mse_score", root, -1, func() { _, err = score(in.state) })
		if err != nil {
			return err
		}
		b.setLayer("metrics.mse_score_ms", scoreS*1e3)
	}
	return nil
}

// replayMatmuls times each shape's kernel reps times on random operands and
// returns, per kernel kind, the FLOPs issued and the seconds they took.
func replayMatmuls(rec *recorder, parent int, shapes []mmShape, reps int, rng *rand.Rand) (flops, secs [3]float64) {
	kernels := [](func(dst, a, b *tensor.Tensor) *tensor.Tensor){tensor.MatMulInto, tensor.MatMulTransAInto, tensor.MatMulTransBInto}
	for _, s := range shapes {
		var a, bm *tensor.Tensor
		switch s.kind {
		case 0:
			a, bm = tensor.New(s.m, s.k), tensor.New(s.k, s.n)
		case 1:
			a, bm = tensor.New(s.k, s.m), tensor.New(s.k, s.n)
		case 2:
			a, bm = tensor.New(s.m, s.k), tensor.New(s.n, s.k)
		}
		a.RandNormal(rng, 0, 1)
		bm.RandNormal(rng, 0, 1)
		dst := tensor.New(s.m, s.n)
		kernel := kernels[s.kind]
		kernel(dst, a, bm)
		for i := 0; i < reps; i++ {
			secs[s.kind] += rec.timed(mmKinds[s.kind], parent, -1, func() { kernel(dst, a, bm) })
		}
		flops[s.kind] += 2 * float64(s.m) * float64(s.n) * float64(s.k) * float64(reps)
	}
	return flops, secs
}

// secondRound runs two rounds on a lone trainer and returns the second's
// wall time: round 0 has no previous global to distil from or stop early
// against, so it is not what a federation's steady state pays.
func secondRound(ctx context.Context, rec *recorder, parent int, name string, tr fed.LocalTrainer, global []float64) (float64, error) {
	first, err := tr.TrainRound(ctx, 0, append([]float64(nil), global...))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	sec := rec.timed(name, parent, -1, func() { _, err = tr.TrainRound(ctx, 1, first.Params) })
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return sec, nil
}

// layerShares attributes one round's time to the repo's packages, from the
// traced run's numbers: the in-situ phase times split the round into train,
// score, aggregate, sample and the rest; the replayed step splits the train
// phase into tensor (matrix products, row slicing), nn (everything else in
// forward and backward), loss, optim and core (the part of an epoch the step
// does not cover). The rest of the round is the service's BeforeRound on
// serve-steady and engine bookkeeping elsewhere. Shares sum to 1.
func layerShares(r *report) map[string]float64 {
	v := func(name string) float64 { return r.PerLayer[name].Value }
	nnStep := v("nn.step_fwd_ms") + v("nn.step_bwd_ms")
	step := map[string]float64{
		"tensor": v("tensor.slice_rows_us")/1e3 + v("tensor.matmul_share")*nnStep,
		"nn":     (1 - v("tensor.matmul_share")) * nnStep,
		"loss":   v("loss.hard_us") / 1e3,
		"optim":  v("optim.step_us") / 1e3,
	}
	var stepMS float64
	for _, ms := range step {
		stepMS += ms
	}
	if cov := v("core.step_coverage"); cov > 0 && cov < 1 {
		step["core"] = stepMS * (1/cov - 1)
		stepMS += step["core"]
	}
	phases := v("fed.sample_ms") + v("fed.train_ms") + v("fed.score_ms") + v("fed.aggregate_ms")
	if stepMS == 0 || phases == 0 || v("fed.phase_coverage") == 0 {
		return nil
	}
	round := phases / v("fed.phase_coverage")
	shares := map[string]float64{
		"metrics": v("fed.score_ms") / round,
		"fed":     (v("fed.sample_ms") + v("fed.aggregate_ms")) / round,
	}
	for layer, ms := range step {
		shares[layer] = ms / stepMS * v("fed.train_ms") / round
	}
	rest := "fed"
	if r.Workload == wlServe {
		rest = "serve"
	}
	if round > phases {
		shares[rest] += (round - phases) / round
	}
	return shares
}
