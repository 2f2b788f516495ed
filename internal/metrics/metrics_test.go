package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"goldfish/internal/data"
	"goldfish/internal/model"
	"goldfish/internal/nn"
	"goldfish/internal/stats"
	"goldfish/internal/tensor"
)

// perfectNet builds a network whose logit for class c is 10·x[0,0,c]: with
// readoutSet datasets below it classifies perfectly.
func perfectNet(t *testing.T, classes int) *nn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	d := nn.NewDense(classes*4, classes, rng)
	for _, p := range d.Params() {
		p.W.Zero()
	}
	// Weight row c reads input element c.
	w := d.Params()[0].W
	for c := 0; c < classes; c++ {
		w.Set(10, c, c)
	}
	return nn.NewNetwork(nn.NewFlatten(), d)
}

// readoutSet builds a dataset where sample i of class y has x[0,0,y]=1 and
// zeros elsewhere, shaped (n, 1, 2, classes*2).
func readoutSet(t *testing.T, n, classes int, seed int64) *data.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, 1, 2, classes*2)
	y := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(classes)
		x.Set(1, i, 0, 0, y[i])
	}
	d, err := data.NewDataset(x, y, classes)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAccuracyPerfectAndBroken(t *testing.T) {
	classes := 4
	d := readoutSet(t, 40, classes, 2)
	net := perfectNet(t, classes)
	if got := Accuracy(net, d, 16); got != 1 {
		t.Errorf("perfect net accuracy = %g, want 1", got)
	}
	// Zeroed network: uniform logits, argmax is class 0 everywhere.
	zero := perfectNet(t, classes)
	for _, p := range zero.Params() {
		p.W.Zero()
	}
	acc := Accuracy(zero, d, 16)
	want := float64(countLabel(d, 0)) / float64(d.Len())
	if math.Abs(acc-want) > 1e-12 {
		t.Errorf("zero net accuracy = %g, want %g", acc, want)
	}
}

func countLabel(d *data.Dataset, y int) int {
	n := 0
	for _, label := range d.Y {
		if label == y {
			n++
		}
	}
	return n
}

func TestAccuracyEmptyDataset(t *testing.T) {
	classes := 3
	d := readoutSet(t, 5, classes, 3)
	empty := d.Subset(nil)
	if got := Accuracy(perfectNet(t, classes), empty, 4); got != 0 {
		t.Errorf("empty dataset accuracy = %g, want 0", got)
	}
}

func TestProbabilitiesRowsSumToOne(t *testing.T) {
	classes := 5
	d := readoutSet(t, 23, classes, 4)
	probs := Evaluate(perfectNet(t, classes), d, 7, OwnLabel, true).Probs // odd batch to hit remainder
	for i := 0; i < d.Len(); i++ {
		var s float64
		for _, v := range probs.Row(i) {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, s)
		}
	}
}

func TestAttackSuccessRate(t *testing.T) {
	classes := 4
	d := readoutSet(t, 30, classes, 5)
	// A network that always answers class 2.
	rng := rand.New(rand.NewSource(6))
	always2 := nn.NewNetwork(nn.NewFlatten(), nn.NewDense(classes*4, classes, rng))
	for _, p := range always2.Params() {
		p.W.Zero()
	}
	always2.Params()[1].W.Set(10, 2) // bias of class 2
	if got := AttackSuccessRate(always2, d, 2, 8); got != 1 {
		t.Errorf("ASR = %g, want 1", got)
	}
	if got := AttackSuccessRate(always2, d, 1, 8); got != 0 {
		t.Errorf("ASR for non-predicted target = %g, want 0", got)
	}
	if got := AttackSuccessRate(always2, d.Subset(nil), 2, 8); got != 0 {
		t.Errorf("ASR on empty set = %g, want 0", got)
	}
}

func TestMSEBounds(t *testing.T) {
	classes := 4
	d := readoutSet(t, 20, classes, 7)
	good := MSE(perfectNet(t, classes), d, 8)
	zero := perfectNet(t, classes)
	for _, p := range zero.Params() {
		p.W.Zero()
	}
	bad := MSE(zero, d, 8)
	if good >= bad {
		t.Errorf("perfect net MSE %g should be below uniform net MSE %g", good, bad)
	}
	if good < 0 || bad < 0 {
		t.Error("MSE must be non-negative")
	}
}

func TestModelDivergenceIdenticalModels(t *testing.T) {
	classes := 3
	d := readoutSet(t, 15, classes, 8)
	net := perfectNet(t, classes)
	div, err := ModelDivergence(net, net, d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if div.JSD > 1e-10 || div.L2 > 1e-10 {
		t.Errorf("identical models should have zero divergence, got %+v", div)
	}
}

func TestModelDivergenceDifferentModels(t *testing.T) {
	classes := 3
	d := readoutSet(t, 15, classes, 9)
	a := perfectNet(t, classes)
	b := perfectNet(t, classes)
	// Flip b towards class 0 everywhere.
	b.Params()[1].W.Set(25, 0)
	div, err := ModelDivergence(a, b, d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if div.JSD <= 0.01 || div.L2 <= 0.01 {
		t.Errorf("different models should diverge, got %+v", div)
	}
	if div.JSD > math.Ln2+1e-9 {
		t.Errorf("JSD %g exceeds ln 2", div.JSD)
	}
	if _, err := ModelDivergence(a, b, d.Subset(nil), 8); err == nil {
		t.Error("empty probe set accepted")
	}
}

func TestConfidenceTTest(t *testing.T) {
	classes := 3
	d := readoutSet(t, 40, classes, 10)
	a := perfectNet(t, classes) // confident
	b := perfectNet(t, classes)
	for _, p := range b.Params() {
		p.W.ScaleInPlace(0.01) // near-uniform, low confidence
	}
	res, err := ConfidenceTTest(a, b, d, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.01 {
		t.Errorf("clearly different confidence patterns: p = %g, want < 0.01", res.P)
	}
	same, err := ConfidenceTTest(a, a, d, 16)
	if err != nil {
		t.Fatal(err)
	}
	if same.P != 1 {
		t.Errorf("identical models: p = %g, want 1", same.P)
	}
	if _, err := ConfidenceTTest(a, b, d.Subset([]int{0}), 16); err == nil {
		t.Error("single-sample probe accepted")
	}
}

// TestRowComparisonsRejectMismatchedRows: the probability-row comparisons
// need two models' rows over one probe set, so a nil matrix, too few rows,
// a row-count or a class-count mismatch is an error, not a truncated read.
func TestRowComparisonsRejectMismatchedRows(t *testing.T) {
	rows := func(n, c int) *tensor.Tensor { return tensor.New(n, c).Fill(1 / float64(c)) }
	for _, tc := range []struct {
		name   string
		pa, pb *tensor.Tensor
	}{
		{"nil", nil, rows(3, 2)},
		{"row count", rows(3, 2), rows(4, 2)},
		{"class count", rows(3, 2), rows(3, 3)},
	} {
		if _, err := RowDivergence(tc.pa, tc.pb); err == nil {
			t.Errorf("%s: RowDivergence accepted", tc.name)
		}
		if _, err := RowConfidenceTTest(tc.pa, tc.pb); err == nil {
			t.Errorf("%s: RowConfidenceTTest accepted", tc.name)
		}
	}
	if _, err := RowDivergence(rows(0, 2), rows(0, 2)); err == nil {
		t.Error("RowDivergence accepted an empty probe set")
	}
	if _, err := RowConfidenceTTest(rows(1, 2), rows(1, 2)); err == nil {
		t.Error("RowConfidenceTTest accepted a single probe row")
	}
}

func TestTopConfidences(t *testing.T) {
	classes := 4
	d := readoutSet(t, 10, classes, 11)
	net := perfectNet(t, classes)
	conf := rowTops(Evaluate(net, d, 4, OwnLabel, true).Probs)
	if len(conf) != 10 {
		t.Fatalf("got %d confidences", len(conf))
	}
	for _, c := range conf {
		if c < 1.0/float64(classes) || c > 1 {
			t.Errorf("confidence %g out of range", c)
		}
	}
	if e := Evaluate(net, d, 4, OwnLabel, false); e.Probs != nil {
		t.Error("a pass that did not keep its probability rows kept them")
	}
}

func TestMembershipGap(t *testing.T) {
	classes := 4
	members := readoutSet(t, 30, classes, 20)
	// Probe set: pure noise images the readout net is unconfident on.
	rng := rand.New(rand.NewSource(21))
	noise := tensor.New(30, 1, 2, classes*2).RandNormal(rng, 0, 0.05)
	labels := make([]int, 30)
	probe, err := data.NewDataset(noise, labels, classes)
	if err != nil {
		t.Fatal(err)
	}
	net := perfectNet(t, classes)
	gap := MembershipGap(net, members, probe, 8)
	if gap < 0.1 {
		t.Errorf("confident-on-members model should show positive gap, got %g", gap)
	}
	if self := MembershipGap(net, members, members, 8); math.Abs(self) > 1e-12 {
		t.Errorf("gap against itself = %g, want 0", self)
	}
	if empty := MembershipGap(net, members.Subset(nil), probe, 8); empty != 0 {
		t.Errorf("empty target gap = %g, want 0", empty)
	}
}

// The ref* functions are the reference for the readers of Evaluate: each is
// the streaming loop one metric ran on its own forward pass before every
// metric read one shared pass, with its own argmax or max loop.

func refProbabilities(net *nn.Network, d *data.Dataset, batch int) *tensor.Tensor {
	var out *tensor.Tensor
	forEachProbBatch(net, d, batch, func(start int, probs *tensor.Tensor) {
		if out == nil {
			out = tensor.New(d.Len(), probs.Dim(1))
		}
		copy(out.Data()[start*probs.Dim(1):], probs.Data())
	})
	return out
}

// refHits counts the rows whose first-wins argmax is target, or the row's
// own label when target is negative.
func refHits(net *nn.Network, d *data.Dataset, target, batch int) int {
	hits := 0
	forEachProbBatch(net, d, batch, func(start int, probs *tensor.Tensor) {
		m, c := probs.Dim(0), probs.Dim(1)
		pd := probs.Data()
		for i := 0; i < m; i++ {
			row := pd[i*c : (i+1)*c]
			best := 0
			for j, v := range row {
				if v > row[best] {
					best = j
				}
			}
			want := target
			if want < 0 {
				want = d.Y[start+i]
			}
			if best == want {
				hits++
			}
		}
	})
	return hits
}

func refAccuracy(net *nn.Network, d *data.Dataset, batch int) float64 {
	if d.Len() == 0 {
		return 0
	}
	return float64(refHits(net, d, -1, batch)) / float64(d.Len())
}

func refAttackSuccessRate(net *nn.Network, d *data.Dataset, target, batch int) float64 {
	if d.Len() == 0 {
		return 0
	}
	return float64(refHits(net, d, target, batch)) / float64(d.Len())
}

func refMSE(net *nn.Network, d *data.Dataset, batch int) float64 {
	if d.Len() == 0 {
		return 0
	}
	var total float64
	classes := 0
	forEachProbBatch(net, d, batch, func(start int, probs *tensor.Tensor) {
		m, c := probs.Dim(0), probs.Dim(1)
		classes = c
		pd := probs.Data()
		for i := 0; i < m; i++ {
			row := pd[i*c : (i+1)*c]
			for j, p := range row {
				target := 0.0
				if j == d.Y[start+i] {
					target = 1
				}
				diff := p - target
				total += diff * diff
			}
		}
	})
	return total / float64(d.Len()*classes)
}

func refTopConfidences(net *nn.Network, d *data.Dataset, batch int) []float64 {
	out := make([]float64, d.Len())
	forEachProbBatch(net, d, batch, func(start int, probs *tensor.Tensor) {
		m, c := probs.Dim(0), probs.Dim(1)
		pd := probs.Data()
		for i := 0; i < m; i++ {
			row := pd[i*c : (i+1)*c]
			best := row[0]
			for _, v := range row[1:] {
				if v > best {
					best = v
				}
			}
			out[start+i] = best
		}
	})
	return out
}

func refMeanTopConfidence(net *nn.Network, d *data.Dataset, batch int) float64 {
	var sum float64
	for _, v := range refTopConfidences(net, d, batch) {
		sum += v
	}
	return sum / float64(d.Len())
}

func refModelDivergence(a, b *nn.Network, d *data.Dataset, batch int) (Divergence, error) {
	pa := refProbabilities(a, d, batch)
	pb := refProbabilities(b, d, batch)
	var sumJSD, sumL2 float64
	for i := 0; i < d.Len(); i++ {
		jsd, err := stats.JSDivergence(pa.Row(i), pb.Row(i))
		if err != nil {
			return Divergence{}, err
		}
		l2, err := stats.L2Distance(pa.Row(i), pb.Row(i))
		if err != nil {
			return Divergence{}, err
		}
		sumJSD += jsd
		sumL2 += l2
	}
	n := float64(d.Len())
	return Divergence{JSD: sumJSD / n, L2: sumL2 / n}, nil
}

func refConfidenceTTest(a, b *nn.Network, d *data.Dataset, batch int) (stats.TTestResult, error) {
	return stats.WelchTTest(refTopConfidences(a, d, batch), refTopConfidences(b, d, batch))
}

// oracleSet is n random 1×28×28 rows with labels drawn over 10 classes.
func oracleSet(t *testing.T, n int, seed int64) *data.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, 1, 28, 28).RandNormal(rng, 0, 1)
	y := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(10)
	}
	d, err := data.NewDataset(x, y, 10)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// oracleNet builds a network for 1×28×28 inputs over 10 classes at half
// the paper's widths, which keeps the LeNet-5's convolutions quick.
func oracleNet(t *testing.T, arch model.Arch, seed int64) *nn.Network {
	t.Helper()
	net, err := model.Build(model.Config{Arch: arch, InC: 1, InH: 28, InW: 28, Classes: 10, Width: 0.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestReadersMatchStreamingLoopsBitwise holds every reader of the shared
// Evaluate pass bit-identical to the per-metric loop it replaced, on an MLP
// and a LeNet-5 and at batch sizes 1, 7 and 256. The "uniform" pair has
// zero weights, so every row ties across all classes: a reader whose argmax
// broke ties differently from the first-wins rule would count different
// hits there.
func TestReadersMatchStreamingLoopsBitwise(t *testing.T) {
	d := oracleSet(t, 260, 1)
	uniform := oracleNet(t, model.ArchMLP, 1)
	for _, p := range uniform.Params() {
		p.W.Zero()
	}
	pairs := []struct {
		name string
		a, b *nn.Network
	}{
		{"mlp", oracleNet(t, model.ArchMLP, 1), oracleNet(t, model.ArchMLP, 2)},
		{"lenet5", oracleNet(t, model.ArchLeNet5, 1), oracleNet(t, model.ArchLeNet5, 2)},
		{"uniform", uniform, oracleNet(t, model.ArchMLP, 3)},
	}
	same := func(t *testing.T, what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v (%#x), reference %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, pr := range pairs {
		for _, batch := range []int{1, 7, 256} {
			t.Run(fmt.Sprintf("%s/batch%d", pr.name, batch), func(t *testing.T) {
				a, b := pr.a, pr.b
				wantAcc := refAccuracy(a, d, batch)
				wantMSE := refMSE(a, d, batch)
				wantTop := refTopConfidences(a, d, batch)
				same(t, "Accuracy", Accuracy(a, d, batch), wantAcc)
				for _, target := range []int{0, 9} {
					same(t, fmt.Sprintf("AttackSuccessRate(target %d)", target),
						AttackSuccessRate(a, d, target, batch), refAttackSuccessRate(a, d, target, batch))
				}
				same(t, "MSE", MSE(a, d, batch), wantMSE)

				e := Evaluate(a, d, batch, OwnLabel, true)
				same(t, "Eval.HitRate", e.HitRate(), wantAcc)
				wantMeanTop := refMeanTopConfidence(a, d, batch)
				same(t, "Eval.MeanTop", e.MeanTop(), wantMeanTop)
				same(t, "Eval.SqErr mean", e.SqErr/float64(e.Rows*e.Classes), wantMSE)
				for i, top := range rowTops(e.Probs) {
					same(t, fmt.Sprintf("top confidence %d", i), top, wantTop[i])
				}
				for i, want := range refProbabilities(a, d, batch).Data() {
					same(t, fmt.Sprintf("Eval.Probs[%d]", i), e.Probs.Data()[i], want)
				}

				wantDiv, err := refModelDivergence(a, b, d, batch)
				if err != nil {
					t.Fatal(err)
				}
				div, err := ModelDivergence(a, b, d, batch)
				if err != nil {
					t.Fatal(err)
				}
				same(t, "ModelDivergence.JSD", div.JSD, wantDiv.JSD)
				same(t, "ModelDivergence.L2", div.L2, wantDiv.L2)
				pb := Evaluate(b, d, batch, OwnLabel, true).Probs
				if div, err = RowDivergence(e.Probs, pb); err != nil {
					t.Fatal(err)
				}
				same(t, "RowDivergence.JSD", div.JSD, wantDiv.JSD)
				same(t, "RowDivergence.L2", div.L2, wantDiv.L2)

				wantTT, err := refConfidenceTTest(a, b, d, batch)
				if err != nil {
					t.Fatal(err)
				}
				tt, err := ConfidenceTTest(a, b, d, batch)
				if err != nil {
					t.Fatal(err)
				}
				same(t, "ConfidenceTTest.T", tt.T, wantTT.T)
				same(t, "ConfidenceTTest.P", tt.P, wantTT.P)
				if tt, err = RowConfidenceTTest(e.Probs, pb); err != nil {
					t.Fatal(err)
				}
				same(t, "RowConfidenceTTest.T", tt.T, wantTT.T)
				same(t, "RowConfidenceTTest.P", tt.P, wantTT.P)

				few := d.Subset([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
				same(t, "MembershipGap", MembershipGap(a, few, d, batch),
					refMeanTopConfidence(a, few, batch)-wantMeanTop)
			})
		}
	}
}
