package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The naive triple loops the four kernels must reproduce bit for bit: one
// product and one rounded addition at a time, in index order, a zero
// coefficient of a skipped where the kernels skip it.

// naiveAB is a·b, or aᵀ·b when transA (a is then (k, m)).
func naiveAB(a, b *Tensor, transA bool) *Tensor {
	m, k := a.shape[0], a.shape[1]
	if transA {
		k, m = m, k
	}
	n := b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.data[i*k+p]
			if transA {
				av = a.data[p*m+i]
			}
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.data[i*n+j] += av * b.data[p*n+j]
			}
		}
	}
	return out
}

// naiveABt adds a·bᵀ to a copy of init (nil: zeros), each sum continuing
// from the value already there.
func naiveABt(init, a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	out := New(m, n)
	if init != nil {
		copy(out.data, init.data)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := out.data[i*n+j]
			for p := 0; p < k; p++ {
				s += a.data[i*k+p] * b.data[j*k+p]
			}
			out.data[i*n+j] = s
		}
	}
	return out
}

func wantSameBits(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	for i := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s[%d] = %x (%g), want %x (%g)", what, i,
				math.Float64bits(got.data[i]), got.data[i], math.Float64bits(want.data[i]), want.data[i])
		}
	}
}

// checkKernels compares all four kernels on a (m,k)·(k,n) problem.
func checkKernels(t *testing.T, what string, a, b *Tensor, rng *rand.Rand) {
	t.Helper()
	m, n := a.shape[0], b.shape[1]
	at, bt := Transpose2D(a), Transpose2D(b)
	stale := func() *Tensor { return New(m, n).Fill(math.NaN()) } // every element must be overwritten
	wantSameBits(t, what+" MatMulInto", MatMulInto(stale(), a, b), naiveAB(a, b, false))
	wantSameBits(t, what+" MatMulTransAInto", MatMulTransAInto(stale(), at, b), naiveAB(at, b, true))
	wantSameBits(t, what+" MatMulTransBInto", MatMulTransBInto(stale(), a, bt), naiveABt(nil, a, bt))
	init := New(m, n).RandNormal(rng, 0, 1)
	wantSameBits(t, what+" MatMulTransBAccInto", MatMulTransBAccInto(init.Clone(), a, bt), naiveABt(init, a, bt))
}

// TestKernelsMatchNaiveBitwise is the oracle for the four-wide kernels.
func TestKernelsMatchNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))

	// Every residue of m, k and n modulo four, with k across the matmulKC
	// reduction tile and n across the matmulJB column tile.
	t.Run("shapes", func(t *testing.T) {
		for _, m := range []int{1, 2, 3, 4} {
			for _, k := range []int{1, 2, 3, 4, 5, 6, 7, matmulKC - 1, matmulKC, matmulKC + 1, matmulKC + 2, 2*matmulKC + 3} {
				for _, n := range []int{1, 2, 3, 4, 5, matmulJB - 2, matmulJB - 1, matmulJB, matmulJB + 1, 2*matmulJB + 3} {
					a := New(m, k).RandNormal(rng, 0, 1)
					b := New(k, n).RandNormal(rng, 0, 1)
					checkKernels(t, fmt.Sprintf("%dx%dx%d", m, k, n), a, b, rng)
				}
			}
		}
	})

	// A conv-shaped product large enough to fork onto the worker pool.
	t.Run("forked", func(t *testing.T) {
		a := New(16, 150).RandNormal(rng, 0, 1)
		b := New(150, 1701).RandNormal(rng, 0, 1)
		checkKernels(t, "16x150x1701", a, b, rng)
	})

	// Row i of a has zeros at the positions of bit mask i inside every group
	// of four (and in the k%4 remainder); opposite each zero, b holds values
	// a product with zero would turn into NaN or a sign change, so the skip
	// must still skip.
	t.Run("zeros", func(t *testing.T) {
		const k, n = 11, 9
		specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
		a := New(16, k).RandNormal(rng, 0, 1)
		for i := 0; i < 16; i++ {
			for p := 0; p < k; p++ {
				if i&(1<<(p%4)) != 0 {
					a.data[i*k+p] = 0
				}
			}
		}
		checkKernels(t, "zeros", a, New(k, n).RandNormal(rng, 0, 1), rng)

		// Row 15 is all zeros: with only that row, every row of b may hold
		// specials and the products that skip must come out as exact zeros.
		zero := FromSlice(a.data[15*k:16*k], 1, k)
		b := New(k, n)
		for i := range b.data {
			b.data[i] = specials[i%len(specials)]
		}
		wantSameBits(t, "all-zero row MatMulInto", MatMulInto(nil, zero, b), New(1, n))
		wantSameBits(t, "all-zero row MatMulTransAInto", MatMulTransAInto(nil, Transpose2D(zero), b), New(1, n))

		// One zero per group, specials only in the rows of b opposite it.
		for pos := 0; pos < 4; pos++ {
			a := New(5, k).RandNormal(rng, 0, 1)
			b := New(k, n).RandNormal(rng, 0, 1)
			for p := pos; p < k; p += 4 {
				for i := 0; i < 5; i++ {
					a.data[i*k+p] = 0
				}
				for j := 0; j < n; j++ {
					b.data[p*n+j] = specials[(p+j)%len(specials)]
				}
			}
			what := fmt.Sprintf("zero at %d of 4", pos)
			wantSameBits(t, what+" MatMulInto", MatMulInto(nil, a, b), naiveAB(a, b, false))
			wantSameBits(t, what+" MatMulTransAInto", MatMulTransAInto(nil, Transpose2D(a), b), naiveAB(a, b, false))
		}
	})

	// Accumulating over consecutive column slices of a and b reproduces one
	// product over all the columns: what a tiled Conv2D relies on.
	t.Run("acc-slices", func(t *testing.T) {
		const m, n, k = 6, 25, 1000
		a := New(m, k).RandNormal(rng, 0, 1)
		b := New(n, k).RandNormal(rng, 0, 1)
		cols := func(x *Tensor, c0, c1 int) *Tensor {
			rows := x.shape[0]
			out := New(rows, c1-c0)
			for i := 0; i < rows; i++ {
				copy(out.data[i*(c1-c0):(i+1)*(c1-c0)], x.data[i*k+c0:i*k+c1])
			}
			return out
		}
		got := New(m, n)
		for _, cut := range [][2]int{{0, 333}, {333, 334}, {334, 801}, {801, 1000}} {
			MatMulTransBAccInto(got, cols(a, cut[0], cut[1]), cols(b, cut[0], cut[1]))
		}
		wantSameBits(t, "sliced MatMulTransBAccInto", got, MatMulTransBInto(nil, a, b))
	})
}
