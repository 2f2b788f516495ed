package attack

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"goldfish/internal/data"
	"goldfish/internal/metrics"
	"goldfish/internal/nn"
	"goldfish/internal/tensor"
)

// tinySet builds an n-sample 1×4×4 dataset with labels cycling over classes,
// so every class is populated deterministically.
func tinySet(t *testing.T, n, classes int, seed int64) *data.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, 1, 4, 4).RandNormal(rng, 0, 1)
	y := make([]int, n)
	for i := range y {
		y[i] = i % classes
	}
	d, err := data.NewDataset(x, y, classes)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// constNet builds a network that predicts class k for every input: zero
// weights, bias 10 on logit k.
func constNet(t *testing.T, in, classes, k int) *nn.Network {
	t.Helper()
	d := nn.NewDense(in, classes, rand.New(rand.NewSource(1)))
	for _, p := range d.Params() {
		p.W.Zero()
	}
	d.Params()[1].W.Data()[k] = 10
	return nn.NewNetwork(nn.NewFlatten(), d)
}

func validCfg() Config {
	return Config{Fraction: 0.3, TargetLabel: 0, SourceClass: 1}
}

// TestRegistry: the attack type table resolves each of its three names to
// the type of that name, which accepts a valid config, and rejects any
// other name with an error that lists the known ones.
func TestRegistry(t *testing.T) {
	if got, want := Types(), []string{"backdoor", "label-flip", "targeted-class"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Types() = %v, want %v", got, want)
	}
	for _, tc := range []struct {
		name    string
		unknown bool
	}{
		{"backdoor", false},
		{"label-flip", false},
		{"targeted-class", false},
		{"gradient-inversion", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Lookup(tc.name)
			if tc.unknown {
				if err == nil || !strings.Contains(err.Error(), "unknown attack") {
					t.Fatalf("Lookup(%q) = %v, want an unknown-type error", tc.name, err)
				}
				for _, name := range Types() {
					if !strings.Contains(err.Error(), name) {
						t.Errorf("unknown-type error %q does not list %q", err, name)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if a.Name() != tc.name {
				t.Errorf("Lookup(%q).Name() = %q", tc.name, a.Name())
			}
			if err := a.Validate(validCfg()); err != nil {
				t.Errorf("%s rejects the valid config: %v", tc.name, err)
			}
		})
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		attack string
		mutate func(*Config)
	}{
		{"zero fraction", "backdoor", func(c *Config) { c.Fraction = 0 }},
		{"fraction above one", "label-flip", func(c *Config) { c.Fraction = 1.5 }},
		{"negative target", "targeted-class", func(c *Config) { c.TargetLabel = -1 }},
		{"negative patch", "backdoor", func(c *Config) { c.PatchSize = -1 }},
		{"negative source", "targeted-class", func(c *Config) { c.SourceClass = -1 }},
		{"source equals target", "targeted-class", func(c *Config) { c.SourceClass = c.TargetLabel }},
		{"strength above one", "targeted-class", func(c *Config) { c.Strength = 1.5 }},
		{"negative strength", "targeted-class", func(c *Config) { c.Strength = -0.1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Lookup(tc.attack)
			if err != nil {
				t.Fatal(err)
			}
			cfg := validCfg()
			tc.mutate(&cfg)
			if err := a.Validate(cfg); err == nil {
				t.Errorf("%s accepted %+v", tc.attack, cfg)
			}
		})
	}
}

// TestPoisonDeterministicPerSeed: for every registered attack, the same seed
// poisons the same rows and produces byte-identical data; a different seed
// picks a different subset.
func TestPoisonDeterministicPerSeed(t *testing.T) {
	for _, name := range Types() {
		t.Run(name, func(t *testing.T) {
			a, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := validCfg()
			poison := func(seed int64) (*data.Dataset, []int) {
				d := tinySet(t, 40, 4, 7)
				rows, err := a.Poison(d, cfg, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				return d, rows
			}
			d1, r1 := poison(3)
			d2, r2 := poison(3)
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("same seed poisoned %v then %v", r1, r2)
			}
			if !reflect.DeepEqual(d1.X.Data(), d2.X.Data()) || !reflect.DeepEqual(d1.Y, d2.Y) {
				t.Error("same seed produced different poisoned data")
			}
			_, r3 := poison(4)
			if reflect.DeepEqual(r1, r3) {
				t.Errorf("seeds 3 and 4 poisoned identical rows %v", r1)
			}
			// Every poisoned row carries the target label.
			for _, r := range r1 {
				if d1.Y[r] != cfg.TargetLabel {
					t.Errorf("poisoned row %d has label %d, want %d", r, d1.Y[r], cfg.TargetLabel)
				}
			}
		})
	}
}

func TestLabelFlipOnlyRelabels(t *testing.T) {
	a, err := Lookup("label-flip")
	if err != nil {
		t.Fatal(err)
	}
	d := tinySet(t, 40, 4, 7)
	before := append([]float64(nil), d.X.Data()...)
	yBefore := append([]int(nil), d.Y...)
	rows, err := a.Poison(d, validCfg(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, d.X.Data()) {
		t.Error("label-flip modified features")
	}
	// 0.3 of the 30 non-target rows.
	if len(rows) != 9 {
		t.Errorf("flipped %d rows, want 9", len(rows))
	}
	for _, r := range rows {
		if yBefore[r] == 0 {
			t.Errorf("row %d already had the target label", r)
		}
	}
}

func TestTargetedClassPerturbsTowardsCentroid(t *testing.T) {
	a, err := Lookup("targeted-class")
	if err != nil {
		t.Fatal(err)
	}
	d := tinySet(t, 40, 4, 7)
	before := d.Clone()
	cfg := validCfg()
	cfg.Strength = 0.5
	rows, err := a.Poison(d, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Centroid of the UNPOISONED target rows.
	size := 16
	centroid := make([]float64, size)
	targets := before.RowsOfClass(cfg.TargetLabel)
	for _, r := range targets {
		for i, v := range before.X.Data()[r*size : (r+1)*size] {
			centroid[i] += v
		}
	}
	for i := range centroid {
		centroid[i] /= float64(len(targets))
	}
	poisoned := map[int]bool{}
	for _, r := range rows {
		poisoned[r] = true
		if before.Y[r] != cfg.SourceClass {
			t.Errorf("poisoned row %d was class %d, want source class %d", r, before.Y[r], cfg.SourceClass)
		}
		for i := 0; i < size; i++ {
			want := 0.5*before.X.Data()[r*size+i] + 0.5*centroid[i]
			got := d.X.Data()[r*size+i]
			if diff := got - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("row %d feature %d = %g, want %g", r, i, got, want)
			}
		}
	}
	// Unpoisoned rows are untouched.
	for r := 0; r < d.Len(); r++ {
		if poisoned[r] {
			continue
		}
		for i := 0; i < size; i++ {
			if d.X.Data()[r*size+i] != before.X.Data()[r*size+i] {
				t.Fatalf("unpoisoned row %d was modified", r)
			}
		}
	}

	// Missing source or target class fails loudly.
	empty := tinySet(t, 8, 4, 1)
	for i := range empty.Y {
		empty.Y[i] = 0
	}
	if _, err := a.Poison(empty, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("poisoning a partition without the source class succeeded")
	}
}

// TestProberSemantics pins each probe's success-rate definition with
// constant-prediction models: a model that always predicts the target scores
// 1, a model that never does scores 0.
func TestProberSemantics(t *testing.T) {
	test := tinySet(t, 40, 4, 11)
	alwaysTarget := constNet(t, 16, 4, 0)
	neverTarget := constNet(t, 16, 4, 2)
	for _, name := range Types() {
		t.Run(name, func(t *testing.T) {
			a, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := a.NewProbe(test, validCfg())
			if err != nil {
				t.Fatal(err)
			}
			if p.Target != validCfg().TargetLabel {
				t.Errorf("probe target %d, want %d", p.Target, validCfg().TargetLabel)
			}
			if got := metrics.AttackSuccessRate(alwaysTarget, p.Rows, p.Target, 0); got != 1 {
				t.Errorf("always-target model scored %g, want 1", got)
			}
			if got := metrics.AttackSuccessRate(neverTarget, p.Rows, p.Target, 0); got != 0 {
				t.Errorf("never-target model scored %g, want 0", got)
			}
		})
	}
}

// TestProberRejectsOutOfRangeLabels: every attack's NewProbe must surface
// dataset-dependent label errors instead of returning a probe that can never
// match a prediction (which would read as perfect unlearning).
func TestProberRejectsOutOfRangeLabels(t *testing.T) {
	test := tinySet(t, 20, 4, 11)
	for _, name := range Types() {
		a, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []int{test.Classes, -1} {
			cfg := validCfg()
			cfg.TargetLabel = target
			if _, err := a.NewProbe(test, cfg); err == nil {
				t.Errorf("%s: target label %d accepted by NewProbe", name, target)
			}
			if _, err := a.Poison(tinySet(t, 20, 4, 11), cfg, rand.New(rand.NewSource(1))); err == nil {
				t.Errorf("%s: target label %d accepted by Poison", name, target)
			}
		}
	}
	a, err := Lookup("targeted-class")
	if err != nil {
		t.Fatal(err)
	}
	cfg := validCfg()
	cfg.SourceClass = test.Classes
	if _, err := a.NewProbe(test, cfg); err == nil {
		t.Error("targeted-class: out-of-range source class accepted by NewProbe")
	}
}

// TestProberUsesCleanProbes: building a probe must not mutate the test set,
// and every probe excludes the samples a success count would trivially
// miscount: no probe row carries the target label, and the targeted-class
// probe holds only source-class rows.
func TestProberUsesCleanProbes(t *testing.T) {
	test := tinySet(t, 40, 4, 11)
	before := append([]float64(nil), test.X.Data()...)
	yBefore := append([]int(nil), test.Y...)
	cfg := validCfg()
	for _, name := range Types() {
		a, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := a.NewProbe(test, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, y := range p.Rows.Y {
			if y == cfg.TargetLabel || (name == "targeted-class" && y != cfg.SourceClass) {
				t.Errorf("%s: probe row %d has label %d", name, i, y)
			}
		}
	}
	if !reflect.DeepEqual(before, test.X.Data()) || !reflect.DeepEqual(yBefore, test.Y) {
		t.Error("building a probe mutated the test set")
	}
}

// TestProbeRejectsEmptyProbeSet: a test set with no row to read the attack
// on fails the probe constructor instead of giving an empty probe, whose
// success rate would read 0 — perfect unlearning.
func TestProbeRejectsEmptyProbeSet(t *testing.T) {
	allTarget := tinySet(t, 20, 4, 11)
	for i := range allTarget.Y {
		allTarget.Y[i] = validCfg().TargetLabel
	}
	for _, name := range Types() {
		a, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if p, err := a.NewProbe(allTarget, validCfg()); err == nil {
			t.Errorf("%s: a test set of target-label rows gave a probe of %d rows", name, p.Rows.Len())
		}
	}
}
