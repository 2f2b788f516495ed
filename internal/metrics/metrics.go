// Package metrics evaluates models for the Goldfish experiments: test
// accuracy, backdoor attack success rate, the MSE score used by the
// adaptive-weight aggregation (paper Eq. 12), and the model-vs-model
// similarity statistics of Tables VII–IX (Jensen–Shannon divergence, L2
// distance, Welch t-test over prediction confidences). Every metric is a
// reader of Evaluate, one forward pass of a model over a probe set, so a
// caller that needs several metrics from one probe set forwards it once.
package metrics

import (
	"fmt"
	"sync"

	"goldfish/internal/data"
	"goldfish/internal/nn"
	"goldfish/internal/stats"
	"goldfish/internal/tensor"
)

// defaultEvalBatch bounds memory use during evaluation.
const defaultEvalBatch = 256

// evalScratch is one evaluation's reusable buffers: the batch row indices,
// the sliced input batch, and the softmax output. Scratch sets are drawn from
// evalPool because the round engine scores clients concurrently, so multiple
// evaluations can be streaming at once.
type evalScratch struct {
	idx       []int
	in, probs *tensor.Tensor
}

var evalPool = sync.Pool{New: func() any { return new(evalScratch) }}

// forEachProbBatch streams the network's evaluation-mode softmax
// probabilities over d: fn is called once per batch with the batch's starting
// row and its (rows, classes) probability tensor. The tensor is pooled
// scratch, overwritten by the next batch — fn must not retain it. Batches are
// visited in row order with identical arithmetic to a whole-dataset
// evaluation, so streaming consumers are bit-identical to matrix-assembling
// ones. batch ≤ 0 selects the default evaluation batch size.
func forEachProbBatch(net *nn.Network, d *data.Dataset, batch int, fn func(start int, probs *tensor.Tensor)) {
	if batch <= 0 {
		batch = defaultEvalBatch
	}
	n := d.Len()
	s := evalPool.Get().(*evalScratch)
	defer evalPool.Put(s)
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		if cap(s.idx) < end-start {
			s.idx = make([]int, end-start)
		}
		s.idx = s.idx[:end-start]
		for i := range s.idx {
			s.idx[i] = start + i
		}
		s.in = tensor.SliceRowsInto(s.in, d.X, s.idx)
		logits := net.Forward(s.in, false)
		s.probs = tensor.SoftmaxRowsInto(s.probs, logits, 1)
		fn(start, s.probs)
	}
}

// OwnLabel, as Evaluate's hit label, counts a row as a hit when the network
// predicts the row's own label (accuracy). Any other hit label counts the
// rows predicted as that label (attack success).
const OwnLabel = -1

// Eval is what one Evaluate pass of a network over a probe set left for
// the metrics that read it: running sums on every pass, and the per-row
// probabilities only when the caller keeps them.
type Eval struct {
	// Rows is the probe set's length; Classes is the network's output
	// width (0 when Rows is 0).
	Rows, Classes int
	// Hits counts the rows whose first-wins argmax is the hit label.
	Hits int
	// TopSum is the sum of the rows' top confidences, in row order.
	TopSum float64
	// SqErr is the squared error against the one-hot labels, summed over
	// every row and class in order.
	SqErr float64
	// Probs holds the (rows, classes) probability matrix when the pass
	// kept it, nil otherwise.
	Probs *tensor.Tensor
}

// HitRate is the share of rows that hit: accuracy under OwnLabel, the
// attack success rate under a target label. It is 0 on an empty set.
func (e Eval) HitRate() float64 {
	if e.Rows == 0 {
		return 0
	}
	return float64(e.Hits) / float64(e.Rows)
}

// MeanTop is the mean top confidence, 0 on an empty set.
func (e Eval) MeanTop() float64 {
	if e.Rows == 0 {
		return 0
	}
	return e.TopSum / float64(e.Rows)
}

// argmax returns the index of row's largest entry, the first one on a tie
// (the tie-break of tensor.ArgMaxRows).
func argmax(row []float64) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// Evaluate forwards the network once over d and feeds every batch's
// probabilities to the readers: the hit count against label (OwnLabel or a
// class), the top-confidence sum, the squared error and, when keepProbs is
// set, the probability rows. Every metric of this package is a reader of
// this pass, so one Evaluate serves all the metrics a caller needs from one
// probe set. batch ≤ 0 selects the default evaluation batch size.
func Evaluate(net *nn.Network, d *data.Dataset, batch, label int, keepProbs bool) Eval {
	e := Eval{Rows: d.Len()}
	forEachProbBatch(net, d, batch, func(start int, probs *tensor.Tensor) {
		m, c := probs.Dim(0), probs.Dim(1)
		e.Classes = c
		pd := probs.Data()
		if keepProbs {
			if e.Probs == nil {
				e.Probs = tensor.New(d.Len(), c)
			}
			copy(e.Probs.Data()[start*c:], pd)
		}
		for i := 0; i < m; i++ {
			row := pd[i*c : (i+1)*c]
			want := label
			if want == OwnLabel {
				want = d.Y[start+i]
			}
			best := argmax(row)
			if best == want {
				e.Hits++
			}
			e.TopSum += row[best]
			for j, p := range row {
				target := 0.0
				if j == d.Y[start+i] {
					target = 1
				}
				diff := p - target
				e.SqErr += diff * diff
			}
		}
	})
	return e
}

// Accuracy returns the fraction of dataset samples the network classifies
// correctly.
func Accuracy(net *nn.Network, d *data.Dataset, batch int) float64 {
	return Evaluate(net, d, batch, OwnLabel, false).HitRate()
}

// AttackSuccessRate measures the backdoor attack success rate: the fraction
// of trigger-stamped samples classified as the attack target. The triggered
// dataset should come from BackdoorConfig.TriggerCopy, which already
// excludes samples whose true label is the target.
func AttackSuccessRate(net *nn.Network, triggered *data.Dataset, target int, batch int) float64 {
	return Evaluate(net, triggered, batch, target, false).HitRate()
}

// NewMSEScorer returns a function computing the Eq. 12 MSE of a flat
// parameter vector on the given test set. Each call evaluates on a replica
// of template drawn from a pool, so the scorer is safe for the round
// engine's concurrent scoring, which bounds its calls in flight to about
// one per CPU; the pool holds no more replicas than calls ran at once.
// template itself is never mutated.
func NewMSEScorer(template *nn.Network, test *data.Dataset, batch int) func(params []float64) (float64, error) {
	tmpl := template.Clone()
	pool := sync.Pool{New: func() any { return tmpl.Clone() }}
	return func(params []float64) (float64, error) {
		net := pool.Get().(*nn.Network)
		defer pool.Put(net)
		if err := net.SetStateVector(params); err != nil {
			return 0, fmt.Errorf("metrics: scoring parameters: %w", err)
		}
		mse := MSE(net, test, batch)
		// The replica returns to the pool idle; don't let it pin
		// test-batch-sized activations while it waits.
		net.ReleaseActivations()
		return mse, nil
	}
}

// MSE returns the mean squared error between the network's softmax outputs
// and the one-hot labels over the dataset — the model-quality score the
// adaptive-weight aggregation uses (paper Eq. 12).
func MSE(net *nn.Network, d *data.Dataset, batch int) float64 {
	e := Evaluate(net, d, batch, OwnLabel, false)
	if e.Rows == 0 {
		return 0
	}
	return e.SqErr / float64(e.Rows*e.Classes)
}

// Divergence holds the model-similarity statistics of Tables VII–IX
// comparing an unlearned model against a reference (retrained) model.
type Divergence struct {
	// JSD is the mean per-sample Jensen–Shannon divergence between the two
	// models' predictive distributions (nats, ≤ ln 2).
	JSD float64
	// L2 is the mean per-sample Euclidean distance between the two models'
	// probability vectors.
	L2 float64
}

// ModelDivergence computes JSD and L2 between the predictive distributions
// of models a and b over the dataset.
func ModelDivergence(a, b *nn.Network, d *data.Dataset, batch int) (Divergence, error) {
	if d.Len() == 0 {
		return Divergence{}, fmt.Errorf("metrics: empty probe dataset")
	}
	return RowDivergence(Evaluate(a, d, batch, OwnLabel, true).Probs, Evaluate(b, d, batch, OwnLabel, true).Probs)
}

// RowDivergence computes JSD and L2 between two models' probability rows
// over the same probe set (Eval.Probs).
func RowDivergence(pa, pb *tensor.Tensor) (Divergence, error) {
	if err := sameRows(pa, pb, 1); err != nil {
		return Divergence{}, err
	}
	n := pa.Dim(0)
	var sumJSD, sumL2 float64
	for i := 0; i < n; i++ {
		jsd, err := stats.JSDivergence(pa.Row(i), pb.Row(i))
		if err != nil {
			return Divergence{}, fmt.Errorf("metrics: JSD at row %d: %w", i, err)
		}
		l2, err := stats.L2Distance(pa.Row(i), pb.Row(i))
		if err != nil {
			return Divergence{}, fmt.Errorf("metrics: L2 at row %d: %w", i, err)
		}
		sumJSD += jsd
		sumL2 += l2
	}
	return Divergence{JSD: sumJSD / float64(n), L2: sumL2 / float64(n)}, nil
}

// sameRows checks that two probability matrices cover the same probe set of
// at least min rows with the same classes.
func sameRows(pa, pb *tensor.Tensor, min int) error {
	if pa == nil || pb == nil || pa.Dim(0) < min {
		return fmt.Errorf("metrics: need ≥%d probe samples", min)
	}
	if pa.Dim(0) != pb.Dim(0) {
		return fmt.Errorf("metrics: probe row count mismatch %d vs %d", pa.Dim(0), pb.Dim(0))
	}
	if pa.Dim(1) != pb.Dim(1) {
		return fmt.Errorf("metrics: class count mismatch %d vs %d", pa.Dim(1), pb.Dim(1))
	}
	return nil
}

// ConfidenceTTest runs Welch's t-test on the per-sample top confidences of
// models a and b over the dataset, answering "are the two models' prediction
// patterns statistically distinguishable?" (paper Tables VII–IX).
func ConfidenceTTest(a, b *nn.Network, d *data.Dataset, batch int) (stats.TTestResult, error) {
	if d.Len() < 2 {
		return stats.TTestResult{}, fmt.Errorf("metrics: t-test needs ≥2 probe samples, got %d", d.Len())
	}
	return RowConfidenceTTest(Evaluate(a, d, batch, OwnLabel, true).Probs, Evaluate(b, d, batch, OwnLabel, true).Probs)
}

// RowConfidenceTTest is ConfidenceTTest read from two models' probability
// rows over the same probe set (Eval.Probs).
func RowConfidenceTTest(pa, pb *tensor.Tensor) (stats.TTestResult, error) {
	if err := sameRows(pa, pb, 2); err != nil {
		return stats.TTestResult{}, err
	}
	res, err := stats.WelchTTest(rowTops(pa), rowTops(pb))
	if err != nil {
		return stats.TTestResult{}, fmt.Errorf("metrics: %w", err)
	}
	return res, nil
}

// rowTops returns each probability row's top confidence.
func rowTops(p *tensor.Tensor) []float64 {
	out := make([]float64, p.Dim(0))
	for i := range out {
		row := p.Row(i)
		out[i] = row[argmax(row)]
	}
	return out
}

// MembershipGap estimates how much a model still "remembers" specific
// samples: the difference between its mean top-confidence on those samples
// and on a held-out probe set of the same distribution. A model that
// memorized the target samples is systematically more confident on them
// (positive gap) — the confidence-based membership-inference signal the
// unlearning literature uses as a validity check; a well-unlearned model's
// gap returns towards zero.
func MembershipGap(net *nn.Network, target, probe *data.Dataset, batch int) float64 {
	if target.Len() == 0 || probe.Len() == 0 {
		return 0
	}
	return Evaluate(net, target, batch, OwnLabel, false).MeanTop() - Evaluate(net, probe, batch, OwnLabel, false).MeanTop()
}
