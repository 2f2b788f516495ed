package tensor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestParallelKernelsMatchSerial is the kernel parity gate: every matmul
// variant must produce identical results (within 1e-12; in fact bitwise)
// under the worker pool and under GOLDFISH_SERIAL-style serial execution.
// CI fails if this test is skipped.
func TestParallelKernelsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{3, 5, 2},
		{17, 33, 9},
		{64, 128, 96},
		{128, 257, 130}, // above the parallel threshold, odd panel splits
	}
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			a := New(s.m, s.k).RandNormal(rng, 0, 1)
			b := New(s.k, s.n).RandNormal(rng, 0, 1)
			at := Transpose2D(a)
			bt := Transpose2D(b)

			init := New(s.m, s.n).RandNormal(rng, 0, 1)

			prev := ForceSerial(true)
			serial := MatMul(a, b)
			serialTB := MatMulTransB(a, bt)
			serialTA := MatMulTransA(at, b)
			serialAcc := MatMulTransBAccInto(init.Clone(), a, bt)
			ForceSerial(false)
			par := MatMul(a, b)
			parTB := MatMulTransB(a, bt)
			parTA := MatMulTransA(at, b)
			parAcc := MatMulTransBAccInto(init.Clone(), a, bt)
			ForceSerial(prev)

			if d := serial.MaxAbsDiff(par); d > 1e-12 {
				t.Errorf("MatMul parallel vs serial differ by %g", d)
			}
			if d := serialTB.MaxAbsDiff(parTB); d > 1e-12 {
				t.Errorf("MatMulTransB parallel vs serial differ by %g", d)
			}
			if d := serialTA.MaxAbsDiff(parTA); d > 1e-12 {
				t.Errorf("MatMulTransA parallel vs serial differ by %g", d)
			}
			if d := serialAcc.MaxAbsDiff(parAcc); d != 0 {
				t.Errorf("MatMulTransBAcc parallel vs serial differ by %g", d)
			}
			// All variants must also agree with the naive reference exactly.
			want := naiveAB(a, b, false) // kernel_bits_test.go
			for name, got := range map[string]*Tensor{
				"MatMul": par, "MatMulTransB": parTB, "MatMulTransA": parTA,
			} {
				if d := want.MaxAbsDiff(got); d != 0 {
					t.Errorf("%s differs from naive reference by %g (want bitwise identity)", name, d)
				}
			}
		})
	}
}

func TestMatMulIntoReusesDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := New(9, 13).RandNormal(rng, 0, 1)
	b := New(13, 6).RandNormal(rng, 0, 1)
	dst := New(9, 6).Fill(123) // stale garbage must be overwritten
	got := MatMulInto(dst, a, b)
	if got != dst {
		t.Fatal("MatMulInto must return its destination")
	}
	if d := got.MaxAbsDiff(MatMul(a, b)); d != 0 {
		t.Errorf("MatMulInto differs from MatMul by %g", d)
	}

	bt := Transpose2D(b) // (6, 13)
	dtb := New(9, 6).Fill(-7)
	if d := MatMulTransBInto(dtb, a, bt).MaxAbsDiff(MatMulTransB(a, bt)); d != 0 {
		t.Errorf("MatMulTransBInto differs from MatMulTransB by %g", d)
	}
	c := New(9, 6).RandNormal(rng, 0, 1)
	dta := New(13, 6).Fill(99)
	if d := MatMulTransAInto(dta, a, c).MaxAbsDiff(MatMulTransA(a, c)); d != 0 {
		t.Errorf("MatMulTransAInto differs from MatMulTransA by %g", d)
	}
}

func TestMatMulIntoBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong destination shape")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(3, 4))
}

func TestEnsureShape(t *testing.T) {
	if got := EnsureShape(nil, 2, 3); got.Size() != 6 {
		t.Fatalf("EnsureShape(nil) size = %d, want 6", got.Size())
	}
	big := New(4, 4)
	backing := big.Data()
	small := EnsureShape(big, 2, 3)
	if small.Size() != 6 || small.Dim(0) != 2 || small.Dim(1) != 3 {
		t.Fatalf("EnsureShape reuse got shape %v", small.Shape())
	}
	if &small.Data()[0] != &backing[0] {
		t.Error("EnsureShape should reuse backing storage when capacity allows")
	}
	grown := EnsureShape(small, 5, 5)
	if grown.Size() != 25 {
		t.Fatalf("EnsureShape grow size = %d", grown.Size())
	}
}

// TestEnsureShapeReuseAllocatesNothing pins the steady state of the layer
// scratch: reshaping a tensor that already fits costs no heap allocation
// (the variadic shape must not escape through a panic message).
func TestEnsureShapeReuseAllocatesNothing(t *testing.T) {
	buf := New(2, 3, 4, 5)
	if n := testing.AllocsPerRun(100, func() { buf = EnsureShape(buf, 2, 3, 4, 5) }); n != 0 {
		t.Errorf("EnsureShape on a fitting tensor allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf = EnsureShape(buf, 6, 20) }); n != 0 {
		t.Errorf("EnsureShape to a lower rank allocates %v times per call, want 0", n)
	}
}

// TestSliceRowsIntoReuseAllocatesNothing is the same for the batch gather
// every training step starts with.
func TestSliceRowsIntoReuseAllocatesNothing(t *testing.T) {
	src := New(10, 3, 4, 4).RandNormal(rand.New(rand.NewSource(1)), 0, 1)
	idx := []int{7, 0, 7, 3}
	dst := SliceRowsInto(nil, src, idx)
	if n := testing.AllocsPerRun(100, func() { dst = SliceRowsInto(dst, src, idx) }); n != 0 {
		t.Errorf("SliceRowsInto a fitting dst allocates %v times per call, want 0", n)
	}
	if want := SliceRows(src, idx); dst.MaxAbsDiff(want) != 0 || dst.Dim(0) != 4 || dst.Dims() != 4 {
		t.Errorf("SliceRowsInto reuse got shape %v, differs from SliceRows", dst.Shape())
	}
}

// TestKernelsConcurrentUse exercises the shared worker pool from many
// goroutines at once; run under -race this is the data-race gate for the
// pool itself.
func TestKernelsConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(70, 90).RandNormal(rng, 0, 1)
	b := New(90, 50).RandNormal(rng, 0, 1)
	bt := Transpose2D(b)
	init := New(70, 50).RandNormal(rng, 0, 1)
	want := MatMul(a, b)
	wantAcc := MatMulTransBAccInto(init.Clone(), a, bt)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				if d := MatMul(a, b).MaxAbsDiff(want); d != 0 {
					t.Errorf("concurrent MatMul diverged by %g", d)
					return
				}
				if d := MatMulTransBAccInto(init.Clone(), a, bt).MaxAbsDiff(wantAcc); d != 0 {
					t.Errorf("concurrent MatMulTransBAcc diverged by %g", d)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func benchMatMul(b *testing.B, m, k, n int, serial bool) {
	rng := rand.New(rand.NewSource(1))
	x := New(m, k).RandNormal(rng, 0, 1)
	y := New(k, n).RandNormal(rng, 0, 1)
	dst := New(m, n)
	prev := ForceSerial(serial)
	defer ForceSerial(prev)
	b.SetBytes(int64(8 * m * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
	flops := 2 * float64(m) * float64(k) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkMatMulSerial64(b *testing.B)    { benchMatMul(b, 64, 512, 512, true) }
func BenchmarkMatMulParallel64(b *testing.B)  { benchMatMul(b, 64, 512, 512, false) }
func BenchmarkMatMulSerial128(b *testing.B)   { benchMatMul(b, 128, 512, 512, true) }
func BenchmarkMatMulParallel128(b *testing.B) { benchMatMul(b, 128, 512, 512, false) }

// BenchmarkMatMulConv runs the three products a Conv2D issues per tile of
// its batch, at the paper's LeNet-5 shapes: w·cols forward, dprod·colsᵀ
// (accumulated) and wᵀ·dprod backward, for w of shape (outC, patch) and one
// tile of columns (6 samples of 28×28 for conv1, 8 of 10×10 for conv2).
func BenchmarkMatMulConv(b *testing.B) {
	for _, c := range []struct {
		name               string
		outC, patch, width int
	}{
		{"conv1-6x25x4704", 6, 25, 6 * 28 * 28},
		{"conv2-16x150x800", 16, 150, 8 * 10 * 10},
	} {
		rng := rand.New(rand.NewSource(1))
		w := New(c.outC, c.patch).RandNormal(rng, 0, 1)
		cols := New(c.patch, c.width).RandNormal(rng, 0, 1)
		dprod := New(c.outC, c.width).RandNormal(rng, 0, 1)
		prod, dw, dcols := New(c.outC, c.width), New(c.outC, c.patch), New(c.patch, c.width)
		for _, k := range []struct {
			name string
			run  func()
		}{
			{"MatMul", func() { MatMulInto(prod, w, cols) }},
			{"TransBAcc", func() { MatMulTransBAccInto(dw, dprod, cols) }},
			{"TransA", func() { MatMulTransAInto(dcols, w, dprod) }},
		} {
			b.Run(k.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.run()
				}
				flops := 2 * float64(c.outC) * float64(c.patch) * float64(c.width)
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
