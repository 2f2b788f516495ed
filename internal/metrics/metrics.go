// Package metrics evaluates models for the Goldfish experiments: test
// accuracy, backdoor attack success rate, the MSE score used by the
// adaptive-weight aggregation (paper Eq. 12), and the model-vs-model
// similarity statistics of Tables VII–IX (Jensen–Shannon divergence, L2
// distance, Welch t-test over prediction confidences).
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

// Probabilities runs the network over the dataset in evaluation mode and
// returns softmax probabilities of shape (N, classes). batch ≤ 0 selects a
// default evaluation batch size. Metrics that only need a streaming view
// should use forEachProbBatch instead of materializing this matrix.
func Probabilities(net *nn.Network, d *data.Dataset, batch int) *tensor.Tensor {
	var out *tensor.Tensor
	forEachProbBatch(net, d, batch, func(start int, probs *tensor.Tensor) {
		if out == nil {
			out = tensor.New(d.Len(), probs.Dim(1))
		}
		copy(out.Data()[start*probs.Dim(1):], probs.Data())
	})
	return out
}

// Accuracy returns the fraction of dataset samples the network classifies
// correctly.
func Accuracy(net *nn.Network, d *data.Dataset, batch int) float64 {
	if d.Len() == 0 {
		return 0
	}
	correct := 0
	forEachProbBatch(net, d, batch, func(start int, probs *tensor.Tensor) {
		m, c := probs.Dim(0), probs.Dim(1)
		pd := probs.Data()
		for i := 0; i < m; i++ {
			// Same first-wins tie-break as tensor.ArgMaxRows.
			row := pd[i*c : (i+1)*c]
			best := 0
			for j, v := range row {
				if v > row[best] {
					best = j
				}
			}
			if best == d.Y[start+i] {
				correct++
			}
		}
	})
	return float64(correct) / float64(d.Len())
}

// AttackSuccessRate measures the backdoor attack success rate: the fraction
// of trigger-stamped samples classified as the attack target. The triggered
// dataset should come from BackdoorConfig.TriggerCopy, which already
// excludes samples whose true label is the target.
func AttackSuccessRate(net *nn.Network, triggered *data.Dataset, target int, batch int) float64 {
	if triggered.Len() == 0 {
		return 0
	}
	hits := 0
	forEachProbBatch(net, triggered, batch, func(start int, probs *tensor.Tensor) {
		m, c := probs.Dim(0), probs.Dim(1)
		pd := probs.Data()
		for i := 0; i < m; i++ {
			// Same first-wins tie-break as tensor.ArgMaxRows.
			row := pd[i*c : (i+1)*c]
			best := 0
			for j, v := range row {
				if v > row[best] {
					best = j
				}
			}
			if best == target {
				hits++
			}
		}
	})
	return float64(hits) / float64(triggered.Len())
}

// NewMSEScorer returns a function computing the Eq. 12 MSE of a flat
// parameter vector on the given test set. Each call evaluates on a
// per-goroutine replica of template drawn from a pool, so the scorer is
// safe for the round engine's concurrent scoring. template itself is never
// mutated.
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
	pa := Probabilities(a, d, batch)
	pb := Probabilities(b, d, batch)
	if pa.Dim(1) != pb.Dim(1) {
		return Divergence{}, fmt.Errorf("metrics: class count mismatch %d vs %d", pa.Dim(1), pb.Dim(1))
	}
	var sumJSD, sumL2 float64
	for i := 0; i < d.Len(); i++ {
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
	n := float64(d.Len())
	return Divergence{JSD: sumJSD / n, L2: sumL2 / n}, nil
}

// TopConfidences returns each sample's maximum predicted probability — the
// per-sample statistic the t-test compares.
func TopConfidences(net *nn.Network, d *data.Dataset, batch int) []float64 {
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

// ConfidenceTTest runs Welch's t-test on the per-sample top confidences of
// models a and b over the dataset, answering "are the two models' prediction
// patterns statistically distinguishable?" (paper Tables VII–IX).
func ConfidenceTTest(a, b *nn.Network, d *data.Dataset, batch int) (stats.TTestResult, error) {
	if d.Len() < 2 {
		return stats.TTestResult{}, fmt.Errorf("metrics: t-test needs ≥2 probe samples, got %d", d.Len())
	}
	ca := TopConfidences(a, d, batch)
	cb := TopConfidences(b, d, batch)
	res, err := stats.WelchTTest(ca, cb)
	if err != nil {
		return stats.TTestResult{}, fmt.Errorf("metrics: %w", err)
	}
	return res, nil
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
	return meanTopConfidence(net, target, batch) - meanTopConfidence(net, probe, batch)
}

// meanTopConfidence streams the mean of the per-sample top confidences. The
// left-to-right accumulation matches stats.Mean over TopConfidences exactly,
// so the streaming form is bit-identical to the materializing one.
func meanTopConfidence(net *nn.Network, d *data.Dataset, batch int) float64 {
	var sum float64
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
			sum += best
		}
	})
	return sum / float64(d.Len())
}
