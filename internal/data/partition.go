package data

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// PartitionIID splits the dataset uniformly at random into parts of (nearly)
// equal size, mirroring the paper's "uniformly assigned the data ... to all
// clients" setup.
func PartitionIID(d *Dataset, parts int, rng *rand.Rand) ([]*Dataset, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("data: need ≥1 partition, got %d", parts)
	}
	if d.Len() < parts {
		return nil, fmt.Errorf("data: cannot split %d samples into %d parts", d.Len(), parts)
	}
	perm := rng.Perm(d.Len())
	out := make([]*Dataset, parts)
	base := d.Len() / parts
	rem := d.Len() % parts
	off := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < rem {
			size++
		}
		out[i] = d.Subset(perm[off : off+size])
		off += size
	}
	return out, nil
}

// PartitionHeterogeneous splits the dataset into parts with uneven sizes and
// skewed label distributions, the paper's Fig. 8 / Table XII setting.
// skew ∈ (0,1]: 1 keeps the split almost IID, values near 0 concentrate
// sizes and classes heavily.
func PartitionHeterogeneous(d *Dataset, parts int, skew float64, rng *rand.Rand) ([]*Dataset, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("data: need ≥1 partition, got %d", parts)
	}
	if skew <= 0 || skew > 1 {
		return nil, fmt.Errorf("data: skew must be in (0,1], got %g", skew)
	}
	if d.Len() < parts {
		return nil, fmt.Errorf("data: cannot split %d samples into %d parts", d.Len(), parts)
	}

	// Uneven part weights: w_i ∝ skew + (1−skew)·U[0,1)³. Cubing drives
	// weights apart as skew → 0.
	weights := make([]float64, parts)
	var wsum float64
	for i := range weights {
		u := rng.Float64()
		weights[i] = skew + (1-skew)*u*u*u
		wsum += weights[i]
	}

	// Per-part class preference: each part prefers a random subset of
	// classes; with small skew, off-preference classes are heavily
	// downweighted.
	pref := make([][]float64, parts)
	for i := range pref {
		pref[i] = make([]float64, d.Classes)
		for c := range pref[i] {
			if rng.Float64() < 0.3 {
				pref[i][c] = 1
			} else {
				pref[i][c] = skew
			}
		}
	}

	// Assign each sample to a part with probability ∝ weight · preference.
	idx := make([][]int, parts)
	probs := make([]float64, parts)
	for s := 0; s < d.Len(); s++ {
		var total float64
		for i := 0; i < parts; i++ {
			probs[i] = weights[i] * pref[i][d.Y[s]]
			total += probs[i]
		}
		r := rng.Float64() * total
		chosen := parts - 1
		for i := 0; i < parts; i++ {
			if r < probs[i] {
				chosen = i
				break
			}
			r -= probs[i]
		}
		idx[chosen] = append(idx[chosen], s)
	}

	// Guarantee non-empty parts by stealing from the largest.
	for i := range idx {
		for len(idx[i]) == 0 {
			largest := 0
			for j := range idx {
				if len(idx[j]) > len(idx[largest]) {
					largest = j
				}
			}
			if len(idx[largest]) <= 1 {
				return nil, fmt.Errorf("data: not enough samples to populate %d parts", parts)
			}
			n := len(idx[largest])
			idx[i] = append(idx[i], idx[largest][n-1])
			idx[largest] = idx[largest][:n-1]
		}
	}

	out := make([]*Dataset, parts)
	for i := range idx {
		out[i] = d.Subset(idx[i])
	}
	return out, nil
}

// PartitionDirichlet splits the dataset with per-class Dirichlet label skew,
// the standard non-IID benchmark partitioner of the federated-learning
// literature: for every class a proportion vector p ~ Dir(alpha·1) over the
// parts decides how that class's samples spread. Small alpha concentrates
// each class on few clients; large alpha approaches an IID split. Every row
// lands in exactly one partition and no partition is left empty.
func PartitionDirichlet(d *Dataset, parts int, alpha float64, rng *rand.Rand) ([]*Dataset, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("data: need ≥1 partition, got %d", parts)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("data: Dirichlet alpha must be positive, got %g", alpha)
	}
	if d.Len() < parts {
		return nil, fmt.Errorf("data: cannot split %d samples into %d parts", d.Len(), parts)
	}

	// Group row indices by class and shuffle within each class.
	byClass := make([][]int, d.Classes)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	idx := make([][]int, parts)
	for _, rows := range byClass {
		if len(rows) == 0 {
			continue
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })

		// p ~ Dir(alpha·1): normalized Gamma(alpha) draws.
		p := make([]float64, parts)
		var sum float64
		for i := range p {
			p[i] = gammaSample(rng, alpha)
			sum += p[i]
		}
		// Degenerate draw (all ~0 underflows): fall back to uniform.
		if sum <= 0 {
			for i := range p {
				p[i] = 1
			}
			sum = float64(parts)
		}

		// Split the class's rows at cumulative-proportion boundaries.
		off := 0
		var cum float64
		for i := 0; i < parts; i++ {
			cum += p[i] / sum
			end := int(cum * float64(len(rows)))
			if i == parts-1 {
				end = len(rows) // absorb rounding; every row lands somewhere
			}
			if end > len(rows) {
				end = len(rows)
			}
			if end > off {
				idx[i] = append(idx[i], rows[off:end]...)
				off = end
			}
		}
	}

	// Guarantee non-empty parts by stealing from the largest.
	for i := range idx {
		for len(idx[i]) == 0 {
			largest := 0
			for j := range idx {
				if len(idx[j]) > len(idx[largest]) {
					largest = j
				}
			}
			if len(idx[largest]) <= 1 {
				return nil, fmt.Errorf("data: not enough samples to populate %d parts", parts)
			}
			n := len(idx[largest])
			idx[i] = append(idx[i], idx[largest][n-1])
			idx[largest] = idx[largest][:n-1]
		}
	}

	out := make([]*Dataset, parts)
	for i := range idx {
		sort.Ints(idx[i])
		out[i] = d.Subset(idx[i])
	}
	return out, nil
}

// gammaSample draws from Gamma(shape, 1) with the Marsaglia–Tsang method,
// boosted for shape < 1 via Gamma(a) = Gamma(a+1)·U^(1/a).
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// LabelSkew measures how far a partitioning deviates from the global label
// distribution: the mean (over partitions) total-variation distance between a
// partition's label histogram and the full dataset's. 0 is perfectly IID;
// the maximum approaches 1 as each partition collapses onto few classes.
func LabelSkew(d *Dataset, parts []*Dataset) float64 {
	if len(parts) == 0 || d.Len() == 0 {
		return 0
	}
	global := d.ClassCounts()
	gp := make([]float64, len(global))
	for c, n := range global {
		gp[c] = float64(n) / float64(d.Len())
	}
	var total float64
	for _, p := range parts {
		counts := p.ClassCounts()
		var tv float64
		for c, n := range counts {
			tv += math.Abs(float64(n)/float64(p.Len()) - gp[c])
		}
		total += tv / 2
	}
	return total / float64(len(parts))
}
