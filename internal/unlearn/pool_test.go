package unlearn

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"goldfish/internal/data"
)

// TestSharedNetworkSetsMatchPerClientSets is the oracle for the federation's
// network pool: under each procedure, five clients of unequal size train
// 2 rounds, client 0 deletes 5 rows, and they train 2 more. At GOMAXPROCS 1
// a round trains one client at a time, so all five share one network set;
// at GOMAXPROCS 5 all five may train at once, each on a set of its own, and
// sets pass between clients from round to round. Both runs must end at
// the same bits, and at the digest recorded before clients borrowed their
// networks, when each client built its own. Goldfish runs with early
// termination, so every round after the first reads its teacher.
func TestSharedNetworkSetsMatchPerClientSets(t *testing.T) {
	train, _ := tinyMNIST(t)
	perm := rand.New(rand.NewSource(30)).Perm(train.Len())
	var parts []*data.Dataset
	for _, n := range []int{20, 30, 45, 60, 85} {
		parts = append(parts, train.Subset(perm[:n]))
		perm = perm[n:]
	}
	want := map[string]string{
		"goldfish":            "89c88805069d1cb3e331bdb75b9d3a145f5274c272c927c73c92dab246f2884b",
		"retrain":             "dc79efcbda38c5cde535f3c7a3e4a90bf2f5b4e2d1dc749e5b7c4edc53b52b31",
		"fisher":              "9f46954e731380c87787ba9c39fe6c556b5088a151323a62f54171e6e28ae4ca",
		"incompetent-teacher": "01b573544d0044e10502e659393a58f44c5d1113fca838bf55816f6e88785d5b",
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range strategyNames() {
		var got [2]string
		for k, procs := range []int{1, 5} {
			runtime.GOMAXPROCS(procs)
			cfg := testConfig(10)
			if name == "goldfish" {
				cfg.EarlyDelta, cfg.AdaptiveTemp = 0.05, true
			}
			f, err := NewFederation(Config{Client: cfg, Strategy: name}, parts)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if err := f.Run(ctx, 2, nil); err != nil {
				t.Fatal(err)
			}
			if err := f.RequestDeletion(0, []int{0, 1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
			if err := f.Run(ctx, 2, nil); err != nil {
				t.Fatal(err)
			}
			got[k] = globalDigest(f)
		}
		if got[0] != got[1] {
			t.Errorf("%s: final state sha256 %s with one shared set, %s with a set per client", name, got[0], got[1])
		}
		if got[0] != want[name] {
			t.Errorf("%s: final state sha256 = %s, want %s", name, got[0], want[name])
		}
	}
}
