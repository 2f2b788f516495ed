package tensor

import (
	"fmt"
	"math"
	"sync"
)

// The four matrix kernels below share one execution scheme: the output is
// split into contiguous row panels that run on the shared worker pool (see
// pool.go), and within a panel the reduction dimension is tiled so the
// panel of b being consumed stays cache-resident. Both transformations
// preserve the per-element floating-point accumulation order of the naive
// triple loop, so serial and parallel runs — and runs before and after this
// blocking — are bitwise identical.
//
// Inside a panel the kernels work four wide, again without reordering a
// single addition:
//
//   - MatMulInto and MatMulTransAInto sweep an output row once per four
//     reduction indices instead of once per index,
//     o[j] = (((o[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j],
//     which is the same chain of rounded additions the one-at-a-time loop
//     performs, with a quarter of the loads and stores of o. The scalar loop
//     skips a zero a, so that 0·Inf in b never becomes a NaN in o; a group
//     of four holding a zero therefore falls back to that loop.
//   - MatMulTransBInto and MatMulTransBAccInto compute four output columns
//     at once: four independent running sums share each load of a[p], and
//     each is still summed in index order.
//
// Remainders (k%4, n%4) use the one-at-a-time loops. The guarantee is
// per-architecture: Go fuses x*y+z into one rounding on some targets
// (arm64, GOAMD64=v3) and not on default amd64, whose results are the ones
// the pinned digests in this repo record. There are no build-tagged
// variants; every target runs this one file.

// Reduction/column tile sizes, sized so one tile of b (tile × row-width
// float64s) fits comfortably in a per-core cache alongside the output panel.
// Both are multiples of four, so a four-wide group never straddles a tile.
const (
	matmulKC = 256 // reduction-dimension tile for MatMul / MatMulTransA
	matmulJB = 48  // b-row tile for MatMulTransB
)

// checkMatMul2D validates a 2-D kernel operand pair against the expected
// inner dimensions and returns (or allocates) the (m,n) destination.
func checkMatMul2D(op string, dst, a, b *Tensor, m, n int, innerOK bool) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires 2-D operands, got %v and %v", op, a.shape, b.shape))
	}
	if !innerOK {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v · %v", op, a.shape, b.shape))
	}
	if dst == nil {
		return New(m, n)
	}
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want [%d %d]", op, dst.shape, m, n))
	}
	return dst
}

// dims2 returns a tensor's leading two dimensions, tolerating lower ranks
// (checkMatMul2D reports the descriptive error in that case).
func dims2(t *Tensor) (int, int) {
	if len(t.shape) != 2 {
		return 0, 0
	}
	return t.shape[0], t.shape[1]
}

// axpy1 adds a·b to the row o, one element after the other.
func axpy1(o []float64, a float64, b []float64) {
	b = b[:len(o)]
	for j := range o {
		o[j] += a * b[j]
	}
}

// axpy4 adds a0·b0, a1·b1, a2·b2 and a3·b3 to the row o in that order, in
// one sweep: each o[j] goes through the same four rounded additions as four
// axpy1 calls would give it.
func axpy4(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j := range o {
		o[j] = (((o[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
	}
}

// axpyEach adds a[p]·(row p of b) to o for p = lo..hi-1 in order, skipping
// zero coefficients; a[p] is ad[p*acs].
func axpyEach(o, ad []float64, acs int, bd []float64, n, lo, hi int) {
	for p := lo; p < hi; p++ {
		if av := ad[p*acs]; av != 0 {
			axpy1(o, av, bd[p*n:p*n+n])
		}
	}
}

// matCall is one matrix-kernel call in the form the worker pool runs a row
// panel of: od = A·b for b of shape (k, n) with A[i][p] = ad[i*ars+p*acs]
// (strides (k, 1) give a·b for a of shape (m, k), strides (1, m) give aᵀ·b
// for a of shape (k, m)), or, with transB, od = a·bᵀ for a of shape (m, k)
// and b of shape (n, k), each sum continuing from od's value when acc is set.
//
// Calls are recycled through matCalls with run bound once, so a kernel call
// allocates no closure: a Conv2D issues three per tile of its batch.
type matCall struct {
	od, ad, bd  []float64
	ars, acs    int
	k, n        int
	transB, acc bool
	run         func(lo, hi int) // c.panel
}

var matCalls = sync.Pool{New: func() any {
	c := new(matCall)
	c.run = c.panel
	return c
}}

// runMatCall computes the m output rows of call on the worker pool.
func runMatCall(m int, call matCall) {
	c := matCalls.Get().(*matCall)
	call.run = c.run
	*c = call
	parallelRows(m, m*c.n*c.k, c.run)
	c.od, c.ad, c.bd = nil, nil, nil
	matCalls.Put(c)
}

// panel computes output rows [lo, hi).
func (c *matCall) panel(lo, hi int) {
	if c.transB {
		matMulTransBPanel(c.od, c.ad, c.bd, c.k, c.n, lo, hi, c.acc)
	} else {
		matMulPanel(c.od, c.ad, c.bd, c.ars, c.acs, c.k, c.n, lo, hi)
	}
}

// matMulPanel computes rows [lo, hi) of od = A·b (see matCall).
func matMulPanel(od, ad, bd []float64, ars, acs, k, n, lo, hi int) {
	clear(od[lo*n : hi*n])
	for p0 := 0; p0 < k; p0 += matmulKC {
		p1 := min(p0+matmulKC, k)
		for i := lo; i < hi; i++ {
			orow := od[i*n : i*n+n]
			arow := ad[i*ars:]
			p := p0
			for ; p+4 <= p1; p += 4 {
				a0, a1, a2, a3 := arow[p*acs], arow[(p+1)*acs], arow[(p+2)*acs], arow[(p+3)*acs]
				if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
					axpyEach(orow, arow, acs, bd, n, p, p+4)
					continue
				}
				axpy4(orow, a0, a1, a2, a3,
					bd[p*n:p*n+n], bd[(p+1)*n:(p+1)*n+n], bd[(p+2)*n:(p+2)*n+n], bd[(p+3)*n:(p+3)*n+n])
			}
			axpyEach(orow, arow, acs, bd, n, p, p1)
		}
	}
}

// matMulTransBPanel computes rows [lo, hi) of od = a·bᵀ (see matCall).
func matMulTransBPanel(od, ad, bd []float64, k, n, lo, hi int, acc bool) {
	for j0 := 0; j0 < n; j0 += matmulJB {
		j1 := min(j0+matmulJB, n)
		for i := lo; i < hi; i++ {
			arow := ad[i*k : i*k+k]
			orow := od[i*n : i*n+n]
			j := j0
			for ; j+4 <= j1; j += 4 {
				b0, b1, b2, b3 := bd[j*k:j*k+k], bd[(j+1)*k:(j+1)*k+k], bd[(j+2)*k:(j+2)*k+k], bd[(j+3)*k:(j+3)*k+k]
				var s0, s1, s2, s3 float64
				if acc {
					s0, s1, s2, s3 = orow[j], orow[j+1], orow[j+2], orow[j+3]
				}
				for p, av := range arow {
					s0 += av * b0[p]
					s1 += av * b1[p]
					s2 += av * b2[p]
					s3 += av * b3[p]
				}
				orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			}
			for ; j < j1; j++ {
				brow := bd[j*k : j*k+k]
				var s float64
				if acc {
					s = orow[j]
				}
				for p, av := range arow {
					s += av * brow[p]
				}
				orow[j] = s
			}
		}
	}
}

// MatMul returns the matrix product a·b for 2-D tensors of shapes (m,k) and
// (k,n). It panics if either operand is not 2-D or the inner dimensions
// disagree.
func MatMul(a, b *Tensor) *Tensor { return MatMulInto(nil, a, b) }

// MatMulInto computes a·b into dst and returns it. dst must have shape
// (m,n) or be nil, in which case a new tensor is allocated; passing a
// reusable dst eliminates the per-call output allocation on hot paths.
// dst must not alias a or b.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k := dims2(a)
	k2, n := dims2(b)
	out := checkMatMul2D("MatMul", dst, a, b, m, n, k == k2)
	runMatCall(m, matCall{od: out.data, ad: a.data, bd: b.data, ars: k, acs: 1, k: k, n: n})
	return out
}

// MatMulTransA returns aᵀ·b for a of shape (k,m) and b of shape (k,n).
func MatMulTransA(a, b *Tensor) *Tensor { return MatMulTransAInto(nil, a, b) }

// MatMulTransAInto computes aᵀ·b into dst (shape (m,n), or nil to
// allocate) and returns it. dst must not alias a or b.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	k, m := dims2(a)
	k2, n := dims2(b)
	out := checkMatMul2D("MatMulTransA", dst, a, b, m, n, k == k2)
	runMatCall(m, matCall{od: out.data, ad: a.data, bd: b.data, ars: 1, acs: m, k: k, n: n})
	return out
}

// MatMulTransB returns a·bᵀ for a of shape (m,k) and b of shape (n,k).
func MatMulTransB(a, b *Tensor) *Tensor { return MatMulTransBInto(nil, a, b) }

// MatMulTransBInto computes a·bᵀ into dst (shape (m,n), or nil to
// allocate) and returns it. dst must not alias a or b.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor {
	m, k := dims2(a)
	n, k2 := dims2(b)
	out := checkMatMul2D("MatMulTransB", dst, a, b, m, n, k == k2)
	runMatCall(m, matCall{od: out.data, ad: a.data, bd: b.data, k: k, n: n, transB: true})
	return out
}

// MatMulTransBAccInto adds a·bᵀ to dst (shape (m,n)) and returns it. Each
// element's running sum continues from the value dst holds, so calling it
// over consecutive column slices of a and b — a[:, c0:c1]·b[:, c0:c1]ᵀ,
// then [c1:c2), … — on a zeroed dst reproduces one MatMulTransBInto over
// all the columns bit for bit. dst must not alias a or b.
func MatMulTransBAccInto(dst, a, b *Tensor) *Tensor {
	m, k := dims2(a)
	n, k2 := dims2(b)
	if dst == nil {
		panic("tensor: MatMulTransBAcc requires a destination to accumulate into")
	}
	out := checkMatMul2D("MatMulTransBAcc", dst, a, b, m, n, k == k2)
	runMatCall(m, matCall{od: out.data, ad: a.data, bd: b.data, k: k, n: n, transB: true, acc: true})
	return out
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D requires a 2-D operand, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// Row returns row i of a 2-D tensor as a slice aliasing the tensor's data.
func (t *Tensor) Row(i int) []float64 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row requires a 2-D tensor, got %v", t.shape))
	}
	n := t.shape[1]
	return t.data[i*n : (i+1)*n]
}

// SoftmaxRows returns row-wise softmax(logits/temp) for a 2-D tensor.
// temp must be positive.
func SoftmaxRows(logits *Tensor, temp float64) *Tensor {
	return SoftmaxRowsInto(nil, logits, temp)
}

// SoftmaxRowsInto computes row-wise softmax(logits/temp) into dst and returns
// it. dst is resized via EnsureShape (nil allocates); passing a reusable dst
// eliminates the per-call output allocation on hot paths. dst must not alias
// logits. temp must be positive.
func SoftmaxRowsInto(dst, logits *Tensor, temp float64) *Tensor {
	if len(logits.shape) != 2 {
		panic(fmt.Sprintf("tensor: SoftmaxRows requires a 2-D tensor, got %v", logits.shape))
	}
	if temp <= 0 {
		panic(fmt.Sprintf("tensor: SoftmaxRows temperature must be positive, got %g", temp))
	}
	m, n := logits.shape[0], logits.shape[1]
	out := EnsureShape(dst, m, n)
	parallelRows(m, 8*m*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src := logits.data[i*n : (i+1)*n]
			dst := out.data[i*n : (i+1)*n]
			softmaxInto(dst, src, temp)
		}
	})
	return out
}

// softmaxInto writes softmax(src/temp) into dst using the max-subtraction
// trick for numerical stability.
func softmaxInto(dst, src []float64, temp float64) {
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j, v := range src {
		e := math.Exp((v - maxv) / temp)
		dst[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range dst {
		dst[j] *= inv
	}
}

// LogSoftmaxRows returns row-wise log-softmax of a 2-D tensor.
func LogSoftmaxRows(logits *Tensor) *Tensor {
	if len(logits.shape) != 2 {
		panic(fmt.Sprintf("tensor: LogSoftmaxRows requires a 2-D tensor, got %v", logits.shape))
	}
	m, n := logits.shape[0], logits.shape[1]
	out := New(m, n)
	parallelRows(m, 8*m*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src := logits.data[i*n : (i+1)*n]
			dst := out.data[i*n : (i+1)*n]
			maxv := src[0]
			for _, v := range src[1:] {
				if v > maxv {
					maxv = v
				}
			}
			var sum float64
			for _, v := range src {
				sum += math.Exp(v - maxv)
			}
			lse := maxv + math.Log(sum)
			for j, v := range src {
				dst[j] = v - lse
			}
		}
	})
	return out
}

// ArgMaxRows returns, for each row of a 2-D tensor, the index of its maximum
// element.
func ArgMaxRows(t *Tensor) []int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRows requires a 2-D tensor, got %v", t.shape))
	}
	m, n := t.shape[0], t.shape[1]
	out := make([]int, m)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// SumRows returns a length-n vector with the column sums of an (m,n) tensor.
func SumRows(t *Tensor) *Tensor {
	return SumRowsInto(nil, t)
}

// SumRowsInto writes the column sums of an (m,n) tensor into dst (a length-n
// vector, resized via EnsureShape; nil allocates) and returns it. dst must
// not alias t.
func SumRowsInto(dst, t *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: SumRows requires a 2-D tensor, got %v", t.shape))
	}
	m, n := t.shape[0], t.shape[1]
	out := EnsureShape(dst, n)
	clear(out.data)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		for j, v := range row {
			out.data[j] += v
		}
	}
	return out
}

// SliceRows returns a new (len(idx), n) tensor containing the selected rows
// of an (m, …) tensor; trailing dimensions are preserved. Row indices may
// repeat.
func SliceRows(t *Tensor, idx []int) *Tensor {
	return SliceRowsInto(nil, t, idx)
}

// SliceRowsInto copies the selected rows of t into dst (resized via
// EnsureShape to (len(idx), …trailing dims); nil allocates) and returns it.
// dst must not alias t. Row indices may repeat.
func SliceRowsInto(dst, t *Tensor, idx []int) *Tensor {
	if len(t.shape) < 1 {
		panic("tensor: SliceRows on scalar tensor")
	}
	rowLen := 1
	for _, d := range t.shape[1:] {
		rowLen *= d
	}
	var buf [8]int
	outShape := append(append(buf[:0], len(idx)), t.shape[1:]...) // stays in buf, on the stack, up to rank 8
	out := EnsureShape(dst, outShape...)
	for i, r := range idx {
		if r < 0 || r >= t.shape[0] {
			panic(fmt.Sprintf("tensor: SliceRows index %d out of range [0,%d)", r, t.shape[0]))
		}
		copy(out.data[i*rowLen:(i+1)*rowLen], t.data[r*rowLen:(r+1)*rowLen])
	}
	return out
}

// Concat concatenates tensors along dimension 0. All trailing dimensions
// must match.
func Concat(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of no tensors")
	}
	rowShape := ts[0].shape[1:]
	rowLen := 1
	for _, d := range rowShape {
		rowLen *= d
	}
	total := 0
	for _, t := range ts {
		if len(t.shape) != len(ts[0].shape) {
			panic("tensor: Concat rank mismatch")
		}
		for i, d := range t.shape[1:] {
			if d != rowShape[i] {
				panic(fmt.Sprintf("tensor: Concat trailing shape mismatch %v vs %v", t.shape, ts[0].shape))
			}
		}
		total += t.shape[0]
	}
	outShape := append([]int{total}, rowShape...)
	out := New(outShape...)
	off := 0
	for _, t := range ts {
		copy(out.data[off:], t.data)
		off += len(t.data)
	}
	return out
}
