// Package tensor provides a small dense float64 tensor used as the numeric
// substrate for the neural-network stack. It supports the operations needed
// by manual backpropagation: elementwise arithmetic, 2-D matrix products,
// row-wise softmax and reductions.
//
// Shape mismatches are programmer errors and panic with a descriptive
// message, mirroring the convention of numeric kernels (e.g. gonum). All
// other failure modes return errors.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Tensor is a dense, row-major float64 tensor. The zero value is an empty
// tensor; use New or FromSlice to construct a usable one.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative or if the shape is empty.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); callers that need isolation should pass a copy.
// It panics if len(data) does not match the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for i, d := range shape {
		if d < 0 {
			// Formats the dimension, not the shape: boxing the slice for
			// %v would make every caller's variadic shape escape, one heap
			// allocation per EnsureShape on the reuse path.
			panic(fmt.Sprintf("tensor: negative dimension %d at index %d", d, i))
		}
		n *= d
	}
	return n
}

// EnsureShape returns a tensor with exactly the given shape, reusing t's
// backing storage when it is large enough and allocating otherwise (t may be
// nil). The contents are unspecified after the call: callers own the returned
// tensor and must fully overwrite or Zero it. This is the allocation-reuse
// primitive behind the layer scratch buffers in package nn.
func EnsureShape(t *Tensor, shape ...int) *Tensor {
	n := checkShape(shape)
	if t == nil || cap(t.data) < n {
		return New(shape...)
	}
	t.data = t.data[:n]
	t.shape = append(t.shape[:0], shape...)
	return t
}

// EnsureLike is EnsureShape to like's shape, without copying that shape
// first.
func EnsureLike(t, like *Tensor) *Tensor { return EnsureShape(t, like.shape...) }

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor; this is
// deliberate and heavily used by the compute kernels.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float64, len(t.data))
	copy(d, t.data)
	return &Tensor{shape: append([]int(nil), t.shape...), data: d}
}

// Reshape returns a view of the same data with a new shape. The element
// count must match. One dimension may be -1, in which case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	out := append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range out {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape allows at most one -1 dimension")
			}
			infer = i
			continue
		}
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		known *= d
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		out[infer] = len(t.data) / known
		known *= out[infer]
	}
	if known != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, known))
	}
	return &Tensor{shape: out, data: t.data}
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set assigns v to the element at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong rank for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Fill sets every element to v and returns t.
func (t *Tensor) Fill(v float64) *Tensor {
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Zero sets every element to 0 and returns t.
func (t *Tensor) Zero() *Tensor { return t.Fill(0) }

// CopyFrom copies src's data into t. Shapes must have equal element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// RandNormal fills the tensor with N(mean, std²) samples from rng and
// returns t.
func (t *Tensor) RandNormal(rng *rand.Rand, mean, std float64) *Tensor {
	for i := range t.data {
		t.data[i] = rng.NormFloat64()*std + mean
	}
	return t
}

// RandUniform fills the tensor with U[lo, hi) samples from rng and returns t.
func (t *Tensor) RandUniform(rng *rand.Rand, lo, hi float64) *Tensor {
	for i := range t.data {
		t.data[i] = lo + rng.Float64()*(hi-lo)
	}
	return t
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) mustSameShape(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, o.shape))
	}
}

// String renders a compact description, truncating large tensors.
func (t *Tensor) String() string {
	var b strings.Builder
	b.WriteString("Tensor(")
	for i, d := range t.shape {
		if i > 0 {
			b.WriteByte('x')
		}
		b.WriteString(strconv.Itoa(d))
	}
	b.WriteString(")[")
	n := len(t.data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if len(t.data) > 8 {
		b.WriteString(" ...")
	}
	b.WriteByte(']')
	return b.String()
}

// AddInPlace adds o elementwise into t and returns t.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	t.mustSameShape(o, "AddInPlace")
	for i, v := range o.data {
		t.data[i] += v
	}
	return t
}

// SubInPlace subtracts o elementwise from t and returns t.
func (t *Tensor) SubInPlace(o *Tensor) *Tensor {
	t.mustSameShape(o, "SubInPlace")
	for i, v := range o.data {
		t.data[i] -= v
	}
	return t
}

// MulInPlace multiplies t elementwise by o (Hadamard) and returns t.
func (t *Tensor) MulInPlace(o *Tensor) *Tensor {
	t.mustSameShape(o, "MulInPlace")
	for i, v := range o.data {
		t.data[i] *= v
	}
	return t
}

// ScaleInPlace multiplies every element by s and returns t.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AXPY adds a*x into t (t += a*x) and returns t.
func (t *Tensor) AXPY(a float64, x *Tensor) *Tensor {
	t.mustSameShape(x, "AXPY")
	for i, v := range x.data {
		t.data[i] += a * v
	}
	return t
}

// Add returns t + o as a new tensor.
func (t *Tensor) Add(o *Tensor) *Tensor { return t.Clone().AddInPlace(o) }

// Sub returns t − o as a new tensor.
func (t *Tensor) Sub(o *Tensor) *Tensor { return t.Clone().SubInPlace(o) }

// Mul returns the Hadamard product t ⊙ o as a new tensor.
func (t *Tensor) Mul(o *Tensor) *Tensor { return t.Clone().MulInPlace(o) }

// Scale returns s·t as a new tensor.
func (t *Tensor) Scale(s float64) *Tensor { return t.Clone().ScaleInPlace(s) }

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *Tensor) Dot(o *Tensor) float64 {
	t.mustSameShape(o, "Dot")
	var s float64
	for i, v := range t.data {
		s += v * o.data[i]
	}
	return s
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns max_i |t_i − o_i|.
func (t *Tensor) MaxAbsDiff(o *Tensor) float64 {
	t.mustSameShape(o, "MaxAbsDiff")
	var m float64
	for i, v := range t.data {
		d := math.Abs(v - o.data[i])
		if d > m {
			m = d
		}
	}
	return m
}

// ApproxEqual reports whether all elements differ by at most tol.
func (t *Tensor) ApproxEqual(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	return t.MaxAbsDiff(o) <= tol
}
