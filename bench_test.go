// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs one registered experiment end to end (data generation,
// federated training, unlearning, metric computation) and reports the key
// reproduced quantities as custom metrics.
//
// The default scale is tiny so `go test -bench=.` finishes in minutes; set
// GOLDFISH_BENCH_SCALE=small|medium|paper for larger runs, e.g.
//
//	GOLDFISH_BENCH_SCALE=small go test -bench=BenchmarkTable3 -benchtime=1x
package goldfish_test

import (
	"io"
	"os"
	"testing"

	"goldfish/internal/bench"
	"goldfish/internal/data"
)

// benchScale resolves the experiment scale for benchmarks.
func benchScale() data.Scale {
	if s := os.Getenv("GOLDFISH_BENCH_SCALE"); s != "" {
		return data.Scale(s)
	}
	return data.ScaleTiny
}

// benchVerbose reports whether reports should be rendered to stderr.
func benchVerbose() bool { return os.Getenv("GOLDFISH_BENCH_VERBOSE") != "" }

// runExperiment executes one registered experiment b.N times.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := bench.Options{Scale: benchScale(), Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var w io.Writer = io.Discard
			if benchVerbose() {
				w = os.Stderr
			}
			report.Render(w)
			b.ReportMetric(float64(len(report.Tables)), "tables")
			b.ReportMetric(float64(len(report.Figures)), "figures")
		}
	}
}

// Fig. 4: retraining accuracy curves, ours vs B1 vs B2.
func BenchmarkFig4Retraining(b *testing.B) { runExperiment(b, "fig4") }

// Fig. 5: backdoor ASR vs deletion rate across dataset/model combos.
func BenchmarkFig5Backdoor(b *testing.B) { runExperiment(b, "fig5") }

// Table III: accuracy + backdoor ASR per deletion rate on MNIST.
func BenchmarkTable3MNIST(b *testing.B) { runExperiment(b, "table3") }

// Table IV: accuracy + backdoor ASR per deletion rate on FMNIST.
func BenchmarkTable4FMNIST(b *testing.B) { runExperiment(b, "table4") }

// Table V: accuracy + backdoor ASR per deletion rate on CIFAR-10.
func BenchmarkTable5CIFAR10(b *testing.B) { runExperiment(b, "table5") }

// Table VI: accuracy + backdoor ASR per deletion rate on CIFAR-100.
func BenchmarkTable6CIFAR100(b *testing.B) { runExperiment(b, "table6") }

// Table VII: JSD / L2 / t-test on MNIST.
func BenchmarkTable7Divergence(b *testing.B) { runExperiment(b, "table7") }

// Table VIII: JSD / L2 / t-test on FMNIST.
func BenchmarkTable8Divergence(b *testing.B) { runExperiment(b, "table8") }

// Table IX: JSD / L2 / t-test on CIFAR-10.
func BenchmarkTable9Divergence(b *testing.B) { runExperiment(b, "table9") }

// Table X: loss-component ablation.
func BenchmarkTable10Ablation(b *testing.B) { runExperiment(b, "table10") }

// Table XI: hard-loss compatibility (CE / Focal / NLL).
func BenchmarkTable11LossCompat(b *testing.B) { runExperiment(b, "table11") }

// Fig. 6: accuracy vs shard count.
func BenchmarkFig6Shards(b *testing.B) { runExperiment(b, "fig6") }

// Fig. 7: accuracy around a deletion event across shard counts.
func BenchmarkFig7ShardDeletion(b *testing.B) { runExperiment(b, "fig7") }

// Fig. 8: FedAvg vs adaptive weights under heterogeneous data.
func BenchmarkFig8Heterogeneous(b *testing.B) { runExperiment(b, "fig8") }

// Fig. 9: FedAvg vs adaptive weights under IID data.
func BenchmarkFig9IID(b *testing.B) { runExperiment(b, "fig9") }

// Table XII: heterogeneity statistics.
func BenchmarkTable12Heterogeneity(b *testing.B) { runExperiment(b, "table12") }

// Repo ablation: early-termination epoch savings.
func BenchmarkAblateEarlyTermination(b *testing.B) { runExperiment(b, "ablate-early") }

// Repo ablation: adaptive distillation temperature.
func BenchmarkAblateAdaptiveTemp(b *testing.B) { runExperiment(b, "ablate-temp") }
