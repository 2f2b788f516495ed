// The paper's evaluation (§IV) at test scale. Artifacts a scenario spec can
// express are committed specs, run by TestPaperSpecs; the rest vary a setting
// no spec field holds and are one TestPaper* each, built on goldfish.New
// alone. README "Examples and experiments" maps all eighteen, and says why
// Figs. 6–7 are not reproduced. Each test logs
// its table (go test -run '^TestPaper' -v .); at test scale the numbers only
// show that the pipeline runs: raise paperScale and paperRounds for shapes.
package goldfish_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"text/tabwriter"

	"goldfish"
	"goldfish/internal/loss"
	"goldfish/internal/stats"
)

// paperRounds is the total round budget of every run here; a deletion lands
// at its midpoint, as in the backdoor specs.
const (
	paperScale  = goldfish.ScaleTiny
	paperRounds = 4
	afterRounds = paperRounds - paperRounds/2
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// paperData resolves a preset at paperScale and generates its data.
func paperData(t *testing.T, dataset string, arch goldfish.Arch) (p goldfish.Preset, train, test *goldfish.Dataset) {
	t.Helper()
	p, err := goldfish.NewPresetWithArch(dataset, arch, paperScale, 1)
	must(t, err)
	train, test, err = p.Generate()
	must(t, err)
	return p, train, test
}

func iid(t *testing.T, train *goldfish.Dataset, clients int) []*goldfish.Dataset {
	t.Helper()
	parts, err := goldfish.PartitionIID(train, clients, rand.New(rand.NewSource(7717)))
	must(t, err)
	return parts
}

func newEngine(t *testing.T, p goldfish.Preset, parts []*goldfish.Dataset, cfg goldfish.Config, strategy string, opts ...goldfish.Option) *goldfish.Engine {
	t.Helper()
	e, err := goldfish.New(append([]goldfish.Option{goldfish.WithPreset(p), goldfish.WithPartitions(parts),
		goldfish.WithClientConfig(cfg), goldfish.WithUnlearner(strategy)}, opts...)...)
	must(t, err)
	return e
}

// accuracyCurve runs n rounds and returns the test accuracy after each.
func accuracyCurve(t *testing.T, e *goldfish.Engine, test *goldfish.Dataset, n int) []float64 {
	t.Helper()
	var accs []float64
	for i := 0; i < n; i++ {
		must(t, e.Run(context.Background(), 1))
		acc, err := e.TestAccuracy(test)
		must(t, err)
		accs = append(accs, acc)
	}
	return accs
}

// pct checks that a rate is finite and in [0,1] and formats it in percent.
func pct(t *testing.T, v float64) string {
	t.Helper()
	if math.IsNaN(v) || v < 0 || v > 1 {
		t.Errorf("rate %v outside [0,1]", v)
	}
	return fmt.Sprintf("%.2f", 100*v)
}

// logTable checks that the table has want rows under its header and logs it.
func logTable(t *testing.T, title string, want int, rows [][]string) {
	t.Helper()
	if len(rows) != want+1 {
		t.Errorf("%s: %d rows, want %d", title, len(rows)-1, want)
	}
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	must(t, w.Flush())
	t.Logf("%s\n%s", title, b.String())
}

// curveTable logs curves of want points each, one column per curve and one
// row per round.
func curveTable(t *testing.T, title string, want int, cols []string, curves [][]float64) {
	t.Helper()
	table := [][]string{append([]string{"round"}, cols...)}
	for r := 0; r < want; r++ {
		row := []string{fmt.Sprint(r + 1)}
		for i, c := range curves {
			if len(c) != want {
				t.Fatalf("%s: %s has %d points, want %d", title, cols[i], len(c), want)
			}
			row = append(row, pct(t, c[r]))
		}
		table = append(table, row)
	}
	logTable(t, title, want, table)
}

// TestPaperSpecs runs every paper spec at one seed, paperScale and
// paperRounds. Tables III–VI and Fig. 5 (origin is the pre-deletion
// columns) are the rates; Tables VII–IX, vs_retrain.
func TestPaperSpecs(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "scenarios", "paper", "*.json"))
	must(t, err)
	for _, path := range append(paths, filepath.Join("examples", "scenarios", "backdoor-goldfish-vs-retrain.json")) {
		spec, err := goldfish.LoadScenario(path)
		must(t, err)
		t.Run(spec.Name, func(t *testing.T) {
			if spec.Rounds == 0 {
				t.Fatalf("%s: a paper spec sets its round budget", path)
			}
			for i := range spec.Schedule {
				spec.Schedule[i].Round = spec.Schedule[i].Round * paperRounds / spec.Rounds
			}
			spec.Scale, spec.Rounds, spec.Seeds = string(paperScale), paperRounds, []int64{1}
			rep, err := goldfish.RunScenario(context.Background(), spec)
			must(t, err)
			must(t, rep.Complete())
			var b strings.Builder
			rep.RenderText(&b)
			t.Log(b.String())
			for _, c := range rep.Cells {
				if len(spec.Schedule) > 0 && c.PreDeletionAccuracy == nil {
					t.Errorf("%s: no pre-deletion accuracy", c.Strategy)
				}
				for _, r := range []*float64{&c.Accuracy, c.PreDeletionAccuracy, c.ASR, c.PreDeletionASR} {
					if r != nil {
						pct(t, *r)
					}
				}
			}
			if slices.Contains(spec.Strategies, "retrain") {
				t.Run("vs_retrain", func(t *testing.T) {
					for _, c := range rep.Cells {
						if v := c.VsRetrain; c.Strategy != "retrain" && (v == nil || !(v.JSD >= 0 && v.L2 >= 0 && v.P >= 0 && v.P <= 1)) {
							t.Errorf("%s: vs_retrain = %+v, want JSD, L2 ≥ 0 and p in [0,1]", c.Strategy, v)
						}
					}
				})
			}
		})
	}
}

// TestPaperFig4 is Fig. 4: test accuracy per round after 5 % of client 0's
// rows are deleted, for Goldfish, B2 (fisher, at a fifth of the learning
// rate, as preconditioned updates want) and B1 (retrain).
func TestPaperFig4(t *testing.T) {
	for _, c := range []struct {
		dataset string
		arch    goldfish.Arch
	}{{"mnist", ""}, {"cifar10", ""}, {"cifar10", goldfish.ArchResNet32}} {
		p, train, test := paperData(t, c.dataset, c.arch)
		parts := iid(t, train, p.Clients)
		rows := rand.New(rand.NewSource(1)).Perm(parts[0].Len())[:parts[0].Len()/20]
		var curves [][]float64
		for _, strategy := range []string{"goldfish", "fisher", "retrain"} {
			cfg := p.ClientConfig()
			if strategy == "fisher" {
				cfg.Opt.LR /= 5
			}
			e := newEngine(t, p, parts, cfg, strategy)
			must(t, e.Run(context.Background(), paperRounds/2))
			must(t, e.RequestDeletion(0, rows))
			curves = append(curves, accuracyCurve(t, e, test, afterRounds))
		}
		curveTable(t, fmt.Sprintf("Fig. 4 %s (%s): accuracy (%%) while retraining after deletion", c.dataset, p.Model.Arch),
			afterRounds, []string{"ours", "B2", "B1"}, curves)
	}
}

// forgetTable backdoors half of client 0 (10 % of the training set) once per
// client-config variant, trains Goldfish to mid-budget, deletes the poisoned
// rows and logs test accuracy and backdoor ASR after each remaining round.
func forgetTable(t *testing.T, title, dataset string, arch goldfish.Arch, names []string, variants ...func(*goldfish.Config)) {
	p, train, test := paperData(t, dataset, arch)
	var cols []string
	var curves [][]float64
	for i, modify := range variants {
		cfg := p.ClientConfig()
		modify(&cfg)
		parts := iid(t, train, p.Clients)
		bd := goldfish.DefaultBackdoor()
		poisoned, err := bd.Poison(parts[0], 0.5, rand.New(rand.NewSource(9949)))
		must(t, err)
		triggered, err := bd.TriggerCopy(test)
		must(t, err)
		e := newEngine(t, p, parts, cfg, "goldfish")
		must(t, e.Run(context.Background(), paperRounds/2))
		must(t, e.RequestDeletion(0, poisoned))
		var acc, asr []float64
		for r := 0; r < afterRounds; r++ {
			must(t, e.Run(context.Background(), 1))
			net, err := e.GlobalNet()
			must(t, err)
			acc = append(acc, goldfish.Accuracy(net, test))
			asr = append(asr, goldfish.AttackSuccessRate(net, triggered, bd.TargetLabel))
		}
		cols, curves = append(cols, names[i]+" acc", names[i]+" backdoor"), append(curves, acc, asr)
	}
	curveTable(t, title, afterRounds, cols, curves)
}

// TestPaperTable10 is Table X, the loss-component ablation.
func TestPaperTable10(t *testing.T) {
	forgetTable(t, "Table X: loss-component ablation (%), CIFAR-10, ResNet-32", "cifar10", goldfish.ArchResNet32,
		[]string{"hard only", "w/o distillation", "w/o confusion", "total"},
		func(c *goldfish.Config) { c.Loss.MuC, c.Loss.MuD = 0, 0 },
		func(c *goldfish.Config) { c.Loss.MuD = 0 },
		func(c *goldfish.Config) { c.Loss.MuC = 0 },
		func(*goldfish.Config) {})
}

// TestPaperTable11 is Table XI, the hard-loss compatibility study.
func TestPaperTable11(t *testing.T) {
	forgetTable(t, "Table XI: hard-loss compatibility (%), CIFAR-10, ResNet-32", "cifar10", goldfish.ArchResNet32,
		[]string{"α (CE)", "β (focal)", "γ (NLL)"},
		func(c *goldfish.Config) { c.Loss.Hard = loss.CrossEntropy{} },
		func(c *goldfish.Config) { c.Loss.Hard = loss.Focal{Gamma: 2} },
		func(c *goldfish.Config) { c.Loss.Hard = loss.NLL{} })
}

// TestPaperAblateTemp compares the fixed distillation temperature with the
// adaptive one of Eq. 11.
func TestPaperAblateTemp(t *testing.T) {
	forgetTable(t, "Adaptive-temperature ablation (%), MNIST", "mnist", "",
		[]string{"fixed T", "adaptive (Eq. 11)"},
		func(c *goldfish.Config) { c.AdaptiveTemp = false },
		func(c *goldfish.Config) { c.AdaptiveTemp = true })
}

// TestPaperAblateEarly counts the local epochs early termination (δ of
// Eq. 7) saves on MNIST at four local epochs per round.
func TestPaperAblateEarly(t *testing.T) {
	p, train, test := paperData(t, "mnist", "")
	table := [][]string{{"delta", "local epochs", "final acc (%)"}}
	for _, delta := range []float64{0, 0.05, 0.2} {
		cfg := p.ClientConfig()
		cfg.LocalEpochs, cfg.EarlyDelta = 4, delta
		var e *goldfish.Engine
		epochs := 0
		e = newEngine(t, p, iid(t, train, p.Clients), cfg, "goldfish", goldfish.WithRoundHook(func(goldfish.RoundStats) {
			for i := 0; i < e.NumClients(); i++ {
				epochs += e.Client(i).LastEpochs()
			}
		}))
		accs := accuracyCurve(t, e, test, paperRounds)
		table = append(table, []string{fmt.Sprint(delta), fmt.Sprint(epochs), pct(t, accs[paperRounds-1])})
	}
	logTable(t, "Early-termination ablation", 3, table)
}

// aggregate trains one federation per aggregator and returns, per
// aggregator, the global accuracy per round and, with a probe, the lowest
// and highest local-model accuracy on it: Fig. 8's error bars.
func aggregate(t *testing.T, p goldfish.Preset, parts []*goldfish.Dataset, test, probe *goldfish.Dataset) (cols []string, curves [][]float64) {
	t.Helper()
	for _, agg := range []goldfish.Aggregator{goldfish.FedAvg{}, goldfish.AdaptiveWeight{}} {
		var lo, hi []float64
		e := newEngine(t, p, parts, p.ClientConfig(), "goldfish", goldfish.WithAggregator(agg), goldfish.WithServerTest(test),
			goldfish.WithRoundHook(func(rs goldfish.RoundStats) {
				if probe == nil {
					return
				}
				lo, hi = append(lo, 1), append(hi, 0)
				for _, u := range rs.Updates {
					net, err := goldfish.BuildModel(p.Model)
					must(t, err)
					must(t, net.SetStateVector(u.Params))
					acc := goldfish.Accuracy(net, probe)
					lo[len(lo)-1], hi[len(hi)-1] = math.Min(lo[len(lo)-1], acc), math.Max(hi[len(hi)-1], acc)
				}
			}))
		cols, curves = append(cols, agg.Name()), append(curves, accuracyCurve(t, e, test, paperRounds))
		if probe != nil {
			cols, curves = append(cols, agg.Name()+" min-local", agg.Name()+" max-local"), append(curves, lo, hi)
		}
	}
	return cols, curves
}

// The paper's client counts (§IV-A) and the skew of Fig. 8 and Table XII.
var paperClients = []int{5, 15, 25}

func heterogeneous(t *testing.T, train *goldfish.Dataset, clients int) []*goldfish.Dataset {
	t.Helper()
	parts, err := goldfish.PartitionHeterogeneous(train, clients, 0.2, rand.New(rand.NewSource(int64(131+clients))))
	must(t, err)
	return parts
}

// TestPaperFig8 is Fig. 8: FedAvg against adaptive weights on
// heterogeneous clients.
func TestPaperFig8(t *testing.T) {
	p, train, test := paperData(t, "mnist", "")
	probe := test.Subset(rand.New(rand.NewSource(1)).Perm(test.Len())[:min(200, test.Len())])
	for _, n := range paperClients {
		cols, curves := aggregate(t, p, heterogeneous(t, train, n), test, probe)
		curveTable(t, fmt.Sprintf("Fig. 8: accuracy (%%), heterogeneous, %d clients", n), paperRounds, cols, curves)
	}
}

// TestPaperFig9 is Fig. 9: FedAvg against adaptive weights on IID clients.
func TestPaperFig9(t *testing.T) {
	p, train, test := paperData(t, "mnist", "")
	for _, n := range paperClients {
		cols, curves := aggregate(t, p, iid(t, train, n), test, nil)
		curveTable(t, fmt.Sprintf("Fig. 9: accuracy (%%), IID, %d clients", n), paperRounds, cols, curves)
	}
}

// TestPaperTable12 is Table XII: the variance of local dataset sizes, and
// the lowest and highest test accuracy of a model trained on one client's
// data alone, which is a one-client engine.
func TestPaperTable12(t *testing.T) {
	p, train, test := paperData(t, "mnist", "")
	table := [][]string{{"clients", "variance", "min acc (%)", "max acc (%)"}}
	for _, n := range paperClients {
		sizes := make([]float64, n)
		lo, hi := 1.0, 0.0
		for i, part := range heterogeneous(t, train, n) {
			sizes[i] = float64(part.Len())
			accs := accuracyCurve(t, newEngine(t, p, []*goldfish.Dataset{part}, p.ClientConfig(), "goldfish"), test, paperRounds)
			lo, hi = math.Min(lo, accs[paperRounds-1]), math.Max(hi, accs[paperRounds-1])
		}
		table = append(table, []string{fmt.Sprint(n), fmt.Sprintf("%.3g", stats.PopulationVariance(sizes)), pct(t, lo), pct(t, hi)})
	}
	logTable(t, "Table XII: data heterogeneity", len(paperClients), table)
}
