package data

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"goldfish/internal/tensor"
)

func tinySet(t *testing.T, n, classes int, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, 1, 4, 4).RandNormal(rng, 0, 1)
	y := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(classes)
	}
	d, err := NewDataset(x, y, classes)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDatasetValidation(t *testing.T) {
	x := tensor.New(3, 1, 2, 2)
	if _, err := NewDataset(x, []int{0, 1}, 2); err == nil {
		t.Error("label count mismatch accepted")
	}
	if _, err := NewDataset(x, []int{0, 1, 5}, 2); err == nil {
		t.Error("out-of-range label accepted")
	}
	if _, err := NewDataset(x.Reshape(3, 4), []int{0, 1, 0}, 2); err == nil {
		t.Error("non-NCHW tensor accepted")
	}
	if _, err := NewDataset(x, []int{0, 0, 0}, 1); err == nil {
		t.Error("single class accepted")
	}
}

func TestSubsetRemove(t *testing.T) {
	d := tinySet(t, 10, 3, 1)
	sub := d.Subset([]int{0, 2, 4})
	if sub.Len() != 3 {
		t.Fatalf("Subset len = %d", sub.Len())
	}
	if sub.Y[1] != d.Y[2] {
		t.Error("Subset labels wrong")
	}
	rest := d.Remove([]int{0, 2, 4})
	if rest.Len() != 7 {
		t.Fatalf("Remove len = %d", rest.Len())
	}
	// Remove tolerates duplicates and out-of-range indices.
	rest2 := d.Remove([]int{0, 0, -1, 99})
	if rest2.Len() != 9 {
		t.Fatalf("Remove with junk indices len = %d, want 9", rest2.Len())
	}
}

func TestSubsetIsCopy(t *testing.T) {
	d := tinySet(t, 4, 2, 2)
	sub := d.Subset([]int{0})
	sub.X.Data()[0] = 999
	if d.X.Data()[0] == 999 {
		t.Error("Subset aliases parent data")
	}
}

func TestConcat(t *testing.T) {
	a := tinySet(t, 4, 3, 3)
	b := tinySet(t, 6, 3, 4)
	c, err := a.Concat(b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 10 {
		t.Fatalf("Concat len = %d", c.Len())
	}
	bad := tinySet(t, 2, 5, 5)
	if _, err := a.Concat(bad); err == nil {
		t.Error("class mismatch accepted")
	}
}

func TestShuffleKeepsPairs(t *testing.T) {
	d := tinySet(t, 20, 4, 6)
	// Tag each sample's first pixel with its label so pairing is checkable.
	for i := range d.Y {
		d.X.Data()[i*16] = float64(d.Y[i])
	}
	d.Shuffle(rand.New(rand.NewSource(7)))
	for i := range d.Y {
		if int(d.X.Data()[i*16]) != d.Y[i] {
			t.Fatal("Shuffle broke image/label pairing")
		}
	}
}

func TestBatchIndices(t *testing.T) {
	batches := BatchIndices(10, 3, nil)
	if len(batches) != 4 {
		t.Fatalf("10/3 should give 4 batches, got %d", len(batches))
	}
	if len(batches[3]) != 1 {
		t.Errorf("last batch len = %d, want 1", len(batches[3]))
	}
	seen := map[int]bool{}
	for _, b := range batches {
		for _, i := range b {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 10 {
		t.Errorf("covered %d indices, want 10", len(seen))
	}
	if BatchIndices(0, 3, nil) != nil {
		t.Error("empty input should give nil")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, err := SpecMNIST(ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	tr1, te1, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr2, te2, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !tr1.X.ApproxEqual(tr2.X, 0) || !te1.X.ApproxEqual(te2.X, 0) {
		t.Error("generation is not deterministic")
	}
}

func TestGenerateShapes(t *testing.T) {
	for _, name := range []string{"mnist", "fmnist", "cifar10", "cifar100"} {
		spec, err := SpecByName(name, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		train, test, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if train.Len() != spec.Train || test.Len() != spec.Test {
			t.Errorf("%s: sizes %d/%d, want %d/%d", name, train.Len(), test.Len(), spec.Train, spec.Test)
		}
		c, h, w := train.Shape()
		if c != spec.Channels || h != spec.Size || w != spec.Size {
			t.Errorf("%s: shape %dx%dx%d, want %dx%dx%d", name, c, h, w, spec.Channels, spec.Size, spec.Size)
		}
		counts := train.ClassCounts()
		for class, n := range counts {
			if n == 0 {
				t.Errorf("%s: class %d has no samples", name, class)
			}
		}
	}
	if _, err := SpecByName("bogus", ScaleTiny); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := SpecMNIST(Scale("bogus")); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestGenerateClassesAreSeparable(t *testing.T) {
	// Same-class samples should on average be closer than cross-class ones;
	// this is the learnability property the substitution relies on.
	spec, err := SpecMNIST(ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	byClass := map[int][]int{}
	for i, y := range train.Y {
		byClass[y] = append(byClass[y], i)
	}
	dist := func(i, j int) float64 {
		a := train.Subset([]int{i}).X
		b := train.Subset([]int{j}).X
		return a.Sub(b).L2Norm()
	}
	var same, cross float64
	var ns, nc int
	for c := 0; c < 4; c++ {
		idx := byClass[c]
		other := byClass[c+4]
		for k := 0; k+1 < len(idx) && k < 8; k += 2 {
			same += dist(idx[k], idx[k+1])
			ns++
		}
		for k := 0; k < len(idx) && k < len(other) && k < 8; k++ {
			cross += dist(idx[k], other[k])
			nc++
		}
	}
	if ns == 0 || nc == 0 {
		t.Skip("not enough samples per class")
	}
	if same/float64(ns) >= cross/float64(nc) {
		t.Errorf("intra-class distance %g not below inter-class %g", same/float64(ns), cross/float64(nc))
	}
}

func TestPartitionIID(t *testing.T) {
	d := tinySet(t, 103, 5, 8)
	parts, err := PartitionIID(d, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		total += p.Len()
		if p.Len() < 20 || p.Len() > 21 {
			t.Errorf("part size %d not near-equal", p.Len())
		}
	}
	if total != 103 {
		t.Errorf("parts cover %d samples, want 103", total)
	}
	if _, err := PartitionIID(d, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("0 parts accepted")
	}
	if _, err := PartitionIID(tinySet(t, 2, 2, 9), 5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("more parts than samples accepted")
	}
}

func TestPartitionHeterogeneous(t *testing.T) {
	d := tinySet(t, 400, 5, 10)
	rng := rand.New(rand.NewSource(2))
	parts, err := PartitionHeterogeneous(d, 8, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		if p.Len() == 0 {
			t.Error("empty partition")
		}
		total += p.Len()
	}
	if total != 400 {
		t.Errorf("parts cover %d samples, want 400", total)
	}
	// Heterogeneous split must be more uneven than the IID split.
	iid, err := PartitionIID(d, 8, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	// Both splits cover all 400 rows, so their partition sizes share a mean.
	sizeVariance := func(ps []*Dataset) float64 {
		mean := float64(total) / float64(len(ps))
		var s float64
		for _, p := range ps {
			dev := float64(p.Len()) - mean
			s += dev * dev
		}
		return s / float64(len(ps))
	}
	if sizeVariance(parts) <= sizeVariance(iid) {
		t.Errorf("heterogeneous variance %g not above IID variance %g",
			sizeVariance(parts), sizeVariance(iid))
	}
	if _, err := PartitionHeterogeneous(d, 8, 0, rng); err == nil {
		t.Error("skew=0 accepted")
	}
	if _, err := PartitionHeterogeneous(d, 8, 1.5, rng); err == nil {
		t.Error("skew>1 accepted")
	}
}

func TestBackdoorPoison(t *testing.T) {
	d := tinySet(t, 50, 4, 11)
	cfg := BackdoorConfig{TargetLabel: 2, PatchSize: 2, PatchValue: 9}
	idx, err := cfg.Poison(d, 0.2, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 10 {
		t.Fatalf("poisoned %d samples, want 10", len(idx))
	}
	for _, i := range idx {
		if d.Y[i] != 2 {
			t.Error("poisoned sample not relabelled")
		}
		// Bottom-right 2x2 patch must be PatchValue.
		if d.X.At(i, 0, 3, 3) != 9 || d.X.At(i, 0, 2, 2) != 9 {
			t.Error("trigger patch not stamped")
		}
	}
	if _, err := cfg.Poison(d, 0, rand.New(rand.NewSource(4))); err == nil {
		t.Error("0 fraction accepted")
	}
	bad := BackdoorConfig{TargetLabel: 9, PatchSize: 2}
	if _, err := bad.Poison(d, 0.1, rand.New(rand.NewSource(4))); err == nil {
		t.Error("invalid target label accepted")
	}
}

func TestBackdoorTriggerCopy(t *testing.T) {
	d := tinySet(t, 30, 3, 12)
	cfg := BackdoorConfig{TargetLabel: 1, PatchSize: 2, PatchValue: 5}
	trig, err := cfg.TriggerCopy(d)
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range trig.Y {
		if y == 1 {
			t.Error("target-label sample not excluded")
		}
		if trig.X.At(i, 0, 3, 3) != 5 {
			t.Error("trigger not stamped on copy")
		}
	}
	// Original untouched.
	for i := 0; i < d.Len(); i++ {
		if d.X.At(i, 0, 3, 3) == 5 && d.X.At(i, 0, 2, 2) == 5 {
			t.Error("TriggerCopy mutated the source dataset")
		}
	}
}

func TestClassCounts(t *testing.T) {
	d := tinySet(t, 40, 4, 13)
	counts := d.ClassCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 40 {
		t.Errorf("counts sum to %d, want 40", total)
	}
}

// Property: Dirichlet partitions cover every row exactly once, for a sweep
// of seeds, part counts, and alphas.
func TestQuickPartitionDirichletCoverage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parts := 2 + rng.Intn(6)
		alpha := []float64{0.05, 0.3, 1, 10}[rng.Intn(4)]
		d := tinySet(t, parts*10+rng.Intn(40), 5, seed)
		out, err := PartitionDirichlet(d, parts, alpha, rng)
		if err != nil {
			return false
		}
		total := 0
		for _, p := range out {
			if p.Len() == 0 {
				return false
			}
			total += p.Len()
		}
		if total != d.Len() {
			return false
		}
		// Reconstruct the global histogram: coverage is exactly once iff the
		// partition histograms sum to the dataset's.
		sum := make([]int, d.Classes)
		for _, p := range out {
			for c, n := range p.ClassCounts() {
				sum[c] += n
			}
		}
		global := d.ClassCounts()
		for c := range sum {
			if sum[c] != global[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPartitionDirichletDeterministic(t *testing.T) {
	d := tinySet(t, 200, 6, 11)
	for _, alpha := range []float64{0.1, 1, 5} {
		a, err := PartitionDirichlet(d, 4, alpha, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := PartitionDirichlet(d, 4, alpha, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].Len() != b[i].Len() {
				t.Fatalf("alpha %g: partition %d sizes differ: %d vs %d", alpha, i, a[i].Len(), b[i].Len())
			}
			for j := range a[i].Y {
				if a[i].Y[j] != b[i].Y[j] {
					t.Fatalf("alpha %g: partition %d row %d differs", alpha, i, j)
				}
			}
			if !bytes.Equal(float64Bytes(a[i].X.Data()), float64Bytes(b[i].X.Data())) {
				t.Fatalf("alpha %g: partition %d pixels differ", alpha, i)
			}
		}
		// A distinct seed must produce a different split (overwhelmingly).
		c, err := PartitionDirichlet(d, 4, alpha, rand.New(rand.NewSource(43)))
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range a {
			if a[i].Len() != c[i].Len() {
				same = false
				break
			}
			for j := range a[i].Y {
				if a[i].Y[j] != c[i].Y[j] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("alpha %g: seeds 42 and 43 produced identical splits", alpha)
		}
	}
}

// Shrinking alpha must increase label skew: compare the mean LabelSkew over
// several seeds at alpha=10 (near IID) vs alpha=0.05 (heavily concentrated).
func TestPartitionDirichletSkewGrowsAsAlphaShrinks(t *testing.T) {
	d := tinySet(t, 400, 8, 3)
	mean := func(alpha float64) float64 {
		var total float64
		const runs = 8
		for s := int64(0); s < runs; s++ {
			parts, err := PartitionDirichlet(d, 5, alpha, rand.New(rand.NewSource(100+s)))
			if err != nil {
				t.Fatal(err)
			}
			total += LabelSkew(d, parts)
		}
		return total / runs
	}
	wide := mean(10)
	narrow := mean(0.05)
	if narrow <= wide {
		t.Errorf("skew did not grow as alpha shrank: alpha=0.05 → %.4f, alpha=10 → %.4f", narrow, wide)
	}
	// And the gap should be substantial, not noise.
	if narrow < wide+0.1 {
		t.Errorf("skew gap too small: alpha=0.05 → %.4f, alpha=10 → %.4f", narrow, wide)
	}
}

func TestPartitionDirichletErrors(t *testing.T) {
	d := tinySet(t, 20, 3, 1)
	if _, err := PartitionDirichlet(d, 0, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero parts accepted")
	}
	if _, err := PartitionDirichlet(d, 3, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := PartitionDirichlet(d, 3, -1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := PartitionDirichlet(d, 30, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("more parts than samples accepted")
	}
}

func TestRowsOfClass(t *testing.T) {
	d := tinySet(t, 50, 4, 9)
	for c := 0; c < d.Classes; c++ {
		rows := d.RowsOfClass(c)
		for i, r := range rows {
			if d.Y[r] != c {
				t.Fatalf("class %d: row %d has label %d", c, r, d.Y[r])
			}
			if i > 0 && rows[i-1] >= r {
				t.Fatalf("class %d: rows not ascending: %v", c, rows)
			}
		}
		if len(rows) != d.ClassCounts()[c] {
			t.Errorf("class %d: %d rows, histogram says %d", c, len(rows), d.ClassCounts()[c])
		}
	}
}

// float64Bytes views a float slice as raw bytes for exact comparison.
func float64Bytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(f))
	}
	return out
}
