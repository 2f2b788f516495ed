package main

import "slices"

// The workload and metric tables below are the code half of BENCHMARK.json:
// smoke_test.go fails when the two disagree, so a metric cannot be renamed
// in one place only.

// Workload names, in the order the all-workloads mode runs them.
const (
	wlTrainLeNet  = "train-lenet"
	wlTrainResNet = "train-resnet-adaptive"
	wlUnlearn     = "unlearn-sample"
	wlServe       = "serve-steady"
)

var workloadNames = []string{wlTrainLeNet, wlTrainResNet, wlUnlearn, wlServe}

// metricSpec declares one metric. only lists the workloads the metric is
// defined on (nil: all four). Every run still prints every metric of its
// set: an end-to-end metric not defined on the workload repeats that run's
// round_p50_s and is flagged (see README, "Placeholders"), a per-layer one
// reads 0. BENCHMARK.json cannot carry this column: the pipeline allows a
// metric entry exactly the keys name, unit, better and bound.
type metricSpec struct {
	name, unit, better string
	only               []string
}

func (m metricSpec) appliesTo(workload string) bool {
	return m.only == nil || slices.Contains(m.only, workload)
}

var (
	onResNet  = []string{wlTrainResNet}
	onUnlearn = []string{wlUnlearn}
	onServe   = []string{wlServe}
	onDelete  = []string{wlUnlearn, wlServe}
)

// endToEnd are the gated metrics, measured with tracing off.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", nil},
	{"round_p50_s", "s", "lower", nil},
	{"samples_per_s", "1/s", "higher", nil},
	{"peak_rss_mb", "MB", "lower", nil},
	{"forget_p50_s", "s", "lower", onUnlearn},
	{"retrain_p50_s", "s", "lower", onUnlearn},
	{"ttf_p50_s", "s", "lower", onServe},
	{"ttf_p90_s", "s", "lower", onServe},
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		m[s.name] = s.unit
	}
	return m
}()

// bounds gives each end-to-end metric the share of the parent's median by
// which it may worsen before a change is rejected (BENCHMARK.json "bound").
// The pipeline accepts a benchmark only while the quartile spread of ten runs
// stays within the bound on every workload, so a bound comes from the widest
// spread this box has shown (README, "Bounds and noise"), not from the 10 %
// the issue hoped for. forget, retrain and the two ttf metrics cannot be
// tighter than round_p50_s: each stands in for it on the workloads it is not
// defined on, so each must carry its spread on the noisiest one. setup_s is
// the shortest sample a run takes and gets the largest bound, as the pipeline
// asks. peak_rss_mb is no time and is steadier: its widest spread is the
// distance between the two levels train-lenet's high-water mark settles at.
var bounds = map[string]float64{
	"setup_s":       0.25,
	"round_p50_s":   0.25,
	"samples_per_s": 0.25,
	"peak_rss_mb":   0.15,
	"forget_p50_s":  0.25,
	"retrain_p50_s": 0.25,
	"ttf_p50_s":     0.25,
	"ttf_p90_s":     0.25,
}

// perLayer are the traced-run metrics, one group per package of the repo.
var perLayer = []metricSpec{
	{"tensor.matmul_gflops", "GFLOP/s", "higher", nil},
	{"tensor.matmul_transa_gflops", "GFLOP/s", "higher", nil},
	{"tensor.matmul_transb_gflops", "GFLOP/s", "higher", nil},
	{"tensor.matmul_share", "ratio", "lower", nil},
	{"tensor.slice_rows_us", "us", "lower", nil},

	{"nn.conv2d.fwd_ms", "ms", "lower", nil},
	{"nn.conv2d.bwd_ms", "ms", "lower", nil},
	{"nn.dense.fwd_ms", "ms", "lower", nil},
	{"nn.dense.bwd_ms", "ms", "lower", nil},
	{"nn.batchnorm.fwd_ms", "ms", "lower", onResNet},
	{"nn.batchnorm.bwd_ms", "ms", "lower", onResNet},
	{"nn.residual.fwd_ms", "ms", "lower", onResNet},
	{"nn.residual.bwd_ms", "ms", "lower", onResNet},
	{"nn.pool.fwd_ms", "ms", "lower", nil},
	{"nn.pool.bwd_ms", "ms", "lower", nil},
	{"nn.relu.fwd_ms", "ms", "lower", nil},
	{"nn.relu.bwd_ms", "ms", "lower", nil},
	{"nn.step_fwd_ms", "ms", "lower", nil},
	{"nn.step_bwd_ms", "ms", "lower", nil},
	{"nn.eval_fwd_ms", "ms", "lower", nil},
	{"nn.state_vector_us", "us", "lower", nil},
	{"nn.allocs_per_step", "count", "lower", nil},
	{"nn.alloc_kb_per_step", "KB", "lower", nil},

	{"loss.hard_us", "us", "lower", nil},
	{"loss.distill_us", "us", "lower", onDelete},
	{"loss.forget_us", "us", "lower", onDelete},
	{"optim.step_us", "us", "lower", nil},

	{"core.train_epoch_ms", "ms", "lower", nil},
	{"core.train_epoch_distill_ms", "ms", "lower", onDelete},
	{"core.client_round_ms", "ms", "lower", nil},
	{"core.epochs_run", "count", "lower", nil},
	{"core.step_coverage", "ratio", "higher", nil},
	{"baselines.client_round_ms", "ms", "lower", onUnlearn},

	{"fed.sample_ms", "ms", "lower", nil},
	{"fed.train_ms", "ms", "lower", nil},
	{"fed.score_ms", "ms", "lower", onResNet},
	{"fed.aggregate_ms", "ms", "lower", nil},
	{"fed.phase_coverage", "ratio", "higher", nil},
	{"fed.straggler_wait_share", "ratio", "lower", nil},
	{"fed.aggregate_us", "us", "lower", nil},
	{"fed.bytes_per_round", "B", "lower", nil},

	{"metrics.accuracy_ms", "ms", "lower", nil},
	{"metrics.mse_score_ms", "ms", "lower", onResNet},

	{"unlearn.forget_call_ms.goldfish", "ms", "lower", onUnlearn},
	{"unlearn.forget_call_ms.retrain", "ms", "lower", onUnlearn},
	{"unlearn.deletion_round_ms.goldfish", "ms", "lower", onUnlearn},
	{"unlearn.deletion_round_ms.retrain", "ms", "lower", onUnlearn},
	{"unlearn.plain_round_ms.goldfish", "ms", "lower", onUnlearn},
	{"unlearn.plain_round_ms.retrain", "ms", "lower", onUnlearn},
	{"unlearn.rounds_to_recover.goldfish", "count", "lower", onUnlearn},
	{"unlearn.rounds_to_recover.retrain", "count", "lower", onUnlearn},
	{"unlearn.acc_after_k.goldfish", "ratio", "higher", onUnlearn},
	{"unlearn.acc_after_k.retrain", "ratio", "higher", onUnlearn},
	{"unlearn.asr_before.goldfish", "ratio", "higher", onUnlearn},
	{"unlearn.asr_before.retrain", "ratio", "higher", onUnlearn},
	{"unlearn.cost_vs_retrain", "ratio", "lower", onUnlearn},

	{"serve.enqueue_us", "us", "lower", onServe},
	{"serve.http_post_ms", "ms", "lower", onServe},
	{"serve.before_round_ms", "ms", "lower", onServe},
	{"serve.lookup_us", "us", "lower", onServe},
	{"serve.batch_size_p50", "count", "lower", onServe},
	{"serve.coalesced_share", "ratio", "lower", onServe},
	{"serve.rejected_share", "ratio", "lower", onServe},
	{"serve.ttf_rounds_p50", "count", "lower", onServe},
	{"serve.gen_late_p99_ms", "ms", "lower", onServe},

	{"data.generate_ms", "ms", "lower", nil},
	{"data.partition_ms", "ms", "lower", nil},
	{"model.build_ms", "ms", "lower", nil},
	{"obs.spans_per_round", "count", "lower", nil},
	{"obs.trace_bytes_per_round", "B", "lower", nil},
	{"trace.overhead_pct", "%", "lower", nil},
	{"go.alloc_mb_per_round", "MB", "lower", nil},
	{"go.allocs_per_round", "count", "lower", nil},
	{"go.gc_cycles", "count", "lower", nil},
	{"go.gc_pause_ms", "ms", "lower", nil},
}
