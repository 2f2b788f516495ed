package unlearn

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
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
		ctx := context.Background()
		if err := f.Run(ctx, 3, nil); err != nil {
			t.Fatal(err)
		}
		if err := f.RequestDeletion(0, []int{0, 1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		if err := f.Run(ctx, 3, nil); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [8]byte
		for _, v := range f.Global() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: final state sha256 = %s, want %s", name, got, want[name])
		}
	}
}
