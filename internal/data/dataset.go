// Package data provides the dataset substrate for the Goldfish
// reproduction: a labelled image container, deterministic synthetic vision
// datasets standing in for MNIST / Fashion-MNIST / CIFAR-10 / CIFAR-100
// (this module is offline, so nothing is downloaded),
// IID and heterogeneous client partitioning, batching, and the backdoor
// trigger machinery the paper uses to probe unlearning.
package data

import (
	"fmt"
	"math/rand"

	"goldfish/internal/tensor"
)

// Dataset is a labelled image set in NCHW layout. X has shape
// (N, C, H, W) and Y holds the class label of each row.
type Dataset struct {
	X       *tensor.Tensor
	Y       []int
	Classes int
}

// NewDataset validates and wraps the given tensors.
func NewDataset(x *tensor.Tensor, y []int, classes int) (*Dataset, error) {
	if x.Dims() != 4 {
		return nil, fmt.Errorf("data: X must be NCHW, got %v", x.Shape())
	}
	if x.Dim(0) != len(y) {
		return nil, fmt.Errorf("data: %d images but %d labels", x.Dim(0), len(y))
	}
	if classes < 2 {
		return nil, fmt.Errorf("data: need ≥2 classes, got %d", classes)
	}
	for i, label := range y {
		if label < 0 || label >= classes {
			return nil, fmt.Errorf("data: label[%d]=%d out of range [0,%d)", i, label, classes)
		}
	}
	return &Dataset{X: x, Y: y, Classes: classes}, nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Shape returns (channels, height, width) of one sample.
func (d *Dataset) Shape() (c, h, w int) { return d.X.Dim(1), d.X.Dim(2), d.X.Dim(3) }

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	return &Dataset{
		X:       d.X.Clone(),
		Y:       append([]int(nil), d.Y...),
		Classes: d.Classes,
	}
}

// Subset returns a new dataset containing the selected rows (copied).
// Indices may repeat; they must be in range.
func (d *Dataset) Subset(idx []int) *Dataset {
	y := make([]int, len(idx))
	for i, r := range idx {
		y[i] = d.Y[r]
	}
	return &Dataset{X: tensor.SliceRows(d.X, idx), Y: y, Classes: d.Classes}
}

// Remove returns a new dataset without the given rows. Out-of-range and
// duplicate indices are ignored.
func (d *Dataset) Remove(idx []int) *Dataset {
	drop := make(map[int]bool, len(idx))
	for _, r := range idx {
		if r >= 0 && r < d.Len() {
			drop[r] = true
		}
	}
	keep := make([]int, 0, d.Len()-len(drop))
	for i := 0; i < d.Len(); i++ {
		if !drop[i] {
			keep = append(keep, i)
		}
	}
	return d.Subset(keep)
}

// Concat appends other's samples to d's, returning a new dataset. Sample
// shapes and class counts must match.
func (d *Dataset) Concat(other *Dataset) (*Dataset, error) {
	if d.Classes != other.Classes {
		return nil, fmt.Errorf("data: class count mismatch %d vs %d", d.Classes, other.Classes)
	}
	c1, h1, w1 := d.Shape()
	c2, h2, w2 := other.Shape()
	if c1 != c2 || h1 != h2 || w1 != w2 {
		return nil, fmt.Errorf("data: sample shape mismatch %dx%dx%d vs %dx%dx%d", c1, h1, w1, c2, h2, w2)
	}
	y := make([]int, 0, d.Len()+other.Len())
	y = append(y, d.Y...)
	y = append(y, other.Y...)
	return &Dataset{X: tensor.Concat(d.X, other.X), Y: y, Classes: d.Classes}, nil
}

// Shuffle permutes the dataset in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	perm := rng.Perm(d.Len())
	d.X = tensor.SliceRows(d.X, perm)
	y := make([]int, len(perm))
	for i, p := range perm {
		y[i] = d.Y[p]
	}
	d.Y = y
}

// BatchIndices splits [0,n) into shuffled batches of at most batchSize.
// The final batch may be smaller. rng may be nil for sequential order.
func BatchIndices(n, batchSize int, rng *rand.Rand) [][]int {
	if n <= 0 || batchSize <= 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if rng != nil {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	var out [][]int
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		out = append(out, order[start:end])
	}
	return out
}

// LabelsFor returns the labels of the given rows.
func (d *Dataset) LabelsFor(idx []int) []int {
	out := make([]int, len(idx))
	for i, r := range idx {
		out[i] = d.Y[r]
	}
	return out
}

// RowsOfClass returns the (ascending) indices of all rows labelled class.
func (d *Dataset) RowsOfClass(class int) []int {
	var out []int
	for i, y := range d.Y {
		if y == class {
			out = append(out, i)
		}
	}
	return out
}

// ClassCounts returns a histogram of labels.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Classes)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// newTensorNCHW wraps a flat pixel slice as an NCHW tensor (helper for the
// CSV importer).
func newTensorNCHW(pixels []float64, n, c, h, w int) *tensor.Tensor {
	return tensor.FromSlice(pixels, n, c, h, w)
}
