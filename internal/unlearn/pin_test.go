package unlearn

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"goldfish/internal/data"
	"goldfish/internal/preset"
)

// TestBaselineStateDigestPin pins the bits of the B1 ("retrain"), B2
// ("fisher") and B3 ("incompetent-teacher") training paths: 3 rounds, delete
// 5 rows of client 0, 3 rounds on tiny MNIST/MLP. The B2 digest was recorded
// before its private epoch loop was folded into core.TrainEpoch, the B3 one
// before its trainer reused one batch tensor; no golden or baseline spec
// lists either strategy, so nothing else guards their bits.
func TestBaselineStateDigestPin(t *testing.T) {
	train, _ := tinyMNIST(t)
	want := map[string]string{
		"retrain":             "f9bb5e443cafed4a72a0b381a1aa9a1e9536c485903674c98d4d092f93b3e4e8",
		"fisher":              "723aab44e9e4caea383c4d737284d4bd7a77e28662bc2bc632fe36141913fdea",
		"incompetent-teacher": "a715a268a2b468625716e286836a5ea3ca3fc4deb5e15d5cfec1dda965da7cf4",
	}
	for _, name := range []string{"retrain", "fisher", "incompetent-teacher"} {
		f, _ := strategyFederation(t, name, train)
		if got := pinnedScheduleDigest(t, f, nil); got != want[name] {
			t.Errorf("%s: final state sha256 = %s, want %s", name, got, want[name])
		}
	}
}

// TestConvStateDigestPin pins, on a conv net (tiny CIFAR-10, modified
// LeNet-5, 3 clients), the two frozen-teacher paths no golden covers:
// goldfish with early termination (Eq. 7) and the adaptive temperature
// (Eq. 11), and incompetent-teacher. The schedule is
// TestBaselineStateDigestPin's. Goldfish runs 8 local epochs so that Eq. 7
// stops some rounds early, in a deletion round too, and the test fails if
// none stops. Both digests were recorded before the teachers' logits were
// computed once per round instead of once per batch.
func TestConvStateDigestPin(t *testing.T) {
	p, err := preset.For("cifar10", "", data.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.PartitionIID(train, 3, rand.New(rand.NewSource(30)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		strategy   string
		earlyDelta float64
		want       string
	}{
		{"goldfish", 0.05, "7f7eecd5b5a8cb0ab4db8df683224e83c25ffbe0b27ba4ec2745e8368a16063f"},
		{"incompetent-teacher", 0, "dbbeca55c7da844e435cca9a2a3f36eb60b9185e34eacb51d79ede352bc35051"},
	} {
		cfg := p.ClientConfig()
		if c.earlyDelta > 0 {
			cfg.EarlyDelta, cfg.AdaptiveTemp, cfg.LocalEpochs = c.earlyDelta, true, 8
		}
		f, err := NewFederation(Config{Client: cfg, Strategy: c.strategy}, parts)
		if err != nil {
			t.Fatal(err)
		}
		stopped := 0
		countStops := func(RoundStats) {
			for i := range f.NumClients() {
				if f.Client(i).LastEpochs() < cfg.LocalEpochs {
					stopped++
				}
			}
		}
		if got := pinnedScheduleDigest(t, f, countStops); got != c.want {
			t.Errorf("%s: final state sha256 = %s, want %s", c.strategy, got, c.want)
		}
		if c.earlyDelta > 0 && stopped == 0 {
			t.Errorf("%s: no client round stopped early, so the pin does not cover Eq. 7", c.strategy)
		}
	}
}

// pinnedScheduleDigest runs f for 3 rounds, deletes rows 0–4 of client 0,
// runs 3 more rounds and returns globalDigest of the final global model.
// onRound, if set, is called after every round.
func pinnedScheduleDigest(t *testing.T, f *Federation, onRound func(RoundStats)) string {
	t.Helper()
	ctx := context.Background()
	if err := f.Run(ctx, 3, onRound); err != nil {
		t.Fatal(err)
	}
	if err := f.RequestDeletion(0, []int{0, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(ctx, 3, onRound); err != nil {
		t.Fatal(err)
	}
	return globalDigest(f)
}

// globalDigest returns the sha256 of the bits of f's global model.
func globalDigest(f *Federation) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range f.Global() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
