package fed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"goldfish/internal/obs"
)

func TestFedAvgWeighting(t *testing.T) {
	updates := []ModelUpdate{
		{ClientID: 0, Params: []float64{1, 1}, NumSamples: 1},
		{ClientID: 1, Params: []float64{5, 5}, NumSamples: 3},
	}
	out, err := FedAvg{}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.25*1 + 0.75*5
	for _, v := range out {
		if math.Abs(v-want) > 1e-12 {
			t.Errorf("FedAvg = %g, want %g", v, want)
		}
	}
}

func TestFedAvgZeroSamplesFallsBackToMean(t *testing.T) {
	updates := []ModelUpdate{
		{Params: []float64{2}, NumSamples: 0},
		{Params: []float64{4}, NumSamples: 0},
	}
	out, err := FedAvg{}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-3) > 1e-12 {
		t.Errorf("mean fallback = %g, want 3", out[0])
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := (FedAvg{}).Aggregate(nil); !errors.Is(err, ErrNoUpdates) {
		t.Errorf("empty updates: %v, want ErrNoUpdates", err)
	}
	mismatch := []ModelUpdate{
		{Params: []float64{1, 2}, NumSamples: 1},
		{Params: []float64{1}, NumSamples: 1},
	}
	if _, err := (FedAvg{}).Aggregate(mismatch); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := (FedAvg{}).Aggregate([]ModelUpdate{{Params: []float64{1}, NumSamples: -1}}); err == nil {
		t.Error("negative sample count accepted")
	}
	// Sample counts arrive over the wire; two halves of MaxInt wrapped the
	// total negative and aggregated [1] and [1] to [-1] with no error.
	huge := []ModelUpdate{
		{ClientID: 0, Params: []float64{1}, NumSamples: math.MaxInt/2 + 1},
		{ClientID: 1, Params: []float64{1}, NumSamples: math.MaxInt/2 + 1},
	}
	if out, err := (FedAvg{}).Aggregate(huge); err == nil || !strings.Contains(err.Error(), "client 1") {
		t.Errorf("overflowing sample counts: got %v, %v; want an error naming client 1", out, err)
	}
	if _, err := (AdaptiveWeight{}).Aggregate([]ModelUpdate{{Params: []float64{1}, MSE: -1}}); err == nil {
		t.Error("negative MSE accepted")
	}
}

func TestAdaptiveWeightFavorsLowMSE(t *testing.T) {
	updates := []ModelUpdate{
		{ClientID: 0, Params: []float64{0}, MSE: 0.01}, // good model
		{ClientID: 1, Params: []float64{1}, MSE: 0.5},  // bad model
	}
	out, err := AdaptiveWeight{}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate must land much closer to the good model's params (0).
	if out[0] > 0.35 {
		t.Errorf("adaptive aggregate %g too close to bad model", out[0])
	}
	// Equal MSEs → plain average.
	equal := []ModelUpdate{
		{Params: []float64{0}, MSE: 0.3},
		{Params: []float64{1}, MSE: 0.3},
	}
	out, err = AdaptiveWeight{}.Aggregate(equal)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-0.5) > 1e-12 {
		t.Errorf("equal-MSE aggregate = %g, want 0.5", out[0])
	}
}

func TestAdaptiveWeightZeroMSE(t *testing.T) {
	updates := []ModelUpdate{
		{Params: []float64{0}, MSE: 0},
		{Params: []float64{2}, MSE: 0},
	}
	out, err := AdaptiveWeight{}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-1) > 1e-12 {
		t.Errorf("all-zero MSE should average: %g, want 1", out[0])
	}
}

// Property: adaptive weights are a probability distribution and
// monotonically favour lower MSE.
func TestQuickAdaptiveWeights(t *testing.T) {
	f := func(seedRaw uint32) bool {
		n := 2 + int(seedRaw%6)
		mses := make([]float64, n)
		v := float64(seedRaw%97) / 97
		for i := range mses {
			mses[i] = 0.05 + v*float64(i+1)/float64(n)
		}
		w := AdaptiveWeight{}.Weights(mses)
		var sum float64
		for i := range w {
			if w[i] <= 0 {
				return false
			}
			sum += w[i]
			if i > 0 && mses[i] > mses[i-1] && w[i] > w[i-1]+1e-12 {
				return false // higher MSE must not get higher weight
			}
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// stubTrainer returns fixed params and can be made to fail.
type stubTrainer struct {
	id      int
	params  []float64
	samples int
	fail    atomic.Bool
	calls   atomic.Int32
}

func (s *stubTrainer) TrainRound(_ context.Context, round int, global []float64) (ModelUpdate, error) {
	s.calls.Add(1)
	if s.fail.Load() {
		return ModelUpdate{}, fmt.Errorf("client %d down", s.id)
	}
	return ModelUpdate{ClientID: s.id, Round: round, Params: append([]float64(nil), s.params...), NumSamples: s.samples}, nil
}

// localEngine builds an Engine over an in-process transport of trainers —
// the federation every in-process caller (unlearn.NewFederation) runs.
func localEngine(t *testing.T, cfg EngineConfig, initial []float64, trainers ...LocalTrainer) *Engine {
	t.Helper()
	e, err := NewEngine(cfg, initial, NewLocalTransport(trainers))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineRunsRounds(t *testing.T) {
	a := &stubTrainer{id: 0, params: []float64{1, 1}, samples: 10}
	b := &stubTrainer{id: 1, params: []float64{3, 3}, samples: 30}
	var rounds []int
	e := localEngine(t, EngineConfig{
		OnRound: func(ri RoundInfo) {
			rounds = append(rounds, ri.Round)
			if len(ri.Updates) != 2 {
				t.Errorf("round %d: %d updates, want 2", ri.Round, len(ri.Updates))
			}
		},
	}, []float64{0, 0}, a, b)
	if err := e.Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	final := e.Global()
	want := 0.25*1 + 0.75*3
	if math.Abs(final[0]-want) > 1e-12 {
		t.Errorf("final global = %g, want %g", final[0], want)
	}
	if len(rounds) != 3 {
		t.Errorf("OnRound fired %d times, want 3", len(rounds))
	}
	if a.calls.Load() != 3 || b.calls.Load() != 3 {
		t.Errorf("trainer calls = %d/%d, want 3/3", a.calls.Load(), b.calls.Load())
	}
}

func TestEngineDropsFailedClients(t *testing.T) {
	good := &stubTrainer{id: 0, params: []float64{2}, samples: 10}
	bad := &stubTrainer{id: 1, params: []float64{9}, samples: 10}
	bad.fail.Store(true)
	var sawDrop bool
	e := localEngine(t, EngineConfig{
		MinClients: 1,
		OnRound: func(ri RoundInfo) {
			if len(ri.Dropped) == 1 && ri.Dropped[0] == 1 {
				sawDrop = true
			}
		},
	}, []float64{0}, good, bad)
	if err := e.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if final := e.Global(); final[0] != 2 {
		t.Errorf("final = %g, want 2 (only good client)", final[0])
	}
	if !sawDrop {
		t.Error("dropped client not reported")
	}
}

func TestEngineAbortsBelowMinClients(t *testing.T) {
	bad := &stubTrainer{id: 0, params: []float64{1}, samples: 1}
	bad.fail.Store(true)
	e := localEngine(t, EngineConfig{MinClients: 1}, []float64{0}, bad)
	if err := e.Run(context.Background(), 1); err == nil {
		t.Error("run should fail when all clients fail")
	}
}

func TestEngineScorerFeedsAggregator(t *testing.T) {
	a := &stubTrainer{id: 0, params: []float64{0}, samples: 1}
	b := &stubTrainer{id: 1, params: []float64{1}, samples: 1}
	scorer := ScorerFunc(func(params []float64) (float64, error) {
		return params[0], nil // param value as MSE: client b is "worse"
	})
	e := localEngine(t, EngineConfig{Aggregator: AdaptiveWeight{}, Scorer: scorer}, []float64{0}, a, b)
	if err := e.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if final := e.Global(); final[0] >= 0.5 {
		t.Errorf("adaptive aggregate %g should favour the low-MSE client", final[0])
	}
}

func TestEngineScorerError(t *testing.T) {
	a := &stubTrainer{id: 0, params: []float64{0}, samples: 1}
	e := localEngine(t, EngineConfig{
		Scorer: ScorerFunc(func([]float64) (float64, error) { return 0, errors.New("probe broken") }),
	}, []float64{0}, a)
	if err := e.Run(context.Background(), 1); err == nil {
		t.Error("scorer error should abort the run")
	}
}

func TestEngineCancellation(t *testing.T) {
	a := &stubTrainer{id: 0, params: []float64{1}, samples: 1}
	e := localEngine(t, EngineConfig{}, []float64{0}, a)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Run(ctx, 100); err == nil {
		t.Error("cancelled run should fail")
	}
}

// blockingTrainer reports that it started, then blocks until its context
// ends.
type blockingTrainer struct{ started chan<- struct{} }

func (b blockingTrainer) TrainRound(ctx context.Context, _ int, _ []float64) (ModelUpdate, error) {
	b.started <- struct{}{}
	<-ctx.Done()
	return ModelUpdate{}, ctx.Err()
}

// TestEngineCancelMidRoundWrapsCanceled is the regression for an interrupt
// during local training: the round failed with "only 0/2 sampled clients
// succeeded" and nothing callers could match, so the server exited as if the
// federation had broken instead of reporting the interrupt. The round is
// cancelled once the first trainer starts: with one goroutine per CPU the
// second may still be queued, and then it never starts.
func TestEngineCancelMidRoundWrapsCanceled(t *testing.T) {
	started := make(chan struct{}, 2)
	e := localEngine(t, EngineConfig{}, []float64{0}, blockingTrainer{started}, blockingTrainer{started})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	err := e.RunRound(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("round cancelled mid-training returned %v, want it to wrap context.Canceled", err)
	}
	if e.Round() != 0 {
		t.Errorf("cancelled round counted: Round() = %d", e.Round())
	}
}

// TestQueuedTrainerSkippedAfterCancel pins that a participant still queued
// when the round's context ends is reported with ctx.Err() and never
// trained, so a failed round cannot move its state: every participant when
// the context ended before the round, and the second of two on one CPU when
// it ends while the first trains.
func TestQueuedTrainerSkippedAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := &stubTrainer{id: 0, params: []float64{1}, samples: 1}
	b := &stubTrainer{id: 1, params: []float64{1}, samples: 1}
	for i, r := range NewLocalTransport([]LocalTrainer{a, b}).ExecuteRound(ctx, 0, []int{0, 1}, []float64{0}) {
		if r.Index != i || !errors.Is(r.Err, context.Canceled) {
			t.Errorf("result %d = index %d, err %v; want index %d, context.Canceled", i, r.Index, r.Err, i)
		}
	}
	if a.calls.Load() != 0 || b.calls.Load() != 0 {
		t.Errorf("TrainRound called %d and %d times after the context ended, want 0", a.calls.Load(), b.calls.Load())
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	started := make(chan struct{}, 1)
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	queued := &stubTrainer{id: 1, params: []float64{1}, samples: 1}
	res := NewLocalTransport([]LocalTrainer{blockingTrainer{started}, queued}).ExecuteRound(ctx, 0, []int{0, 1}, []float64{0})
	if !errors.Is(res[1].Err, context.Canceled) || queued.calls.Load() != 0 {
		t.Errorf("queued trainer: err %v after %d TrainRound calls, want context.Canceled after 0", res[1].Err, queued.calls.Load())
	}
}

// concurrencyProbe counts the calls in flight and the most seen at once.
type concurrencyProbe struct{ now, peak atomic.Int32 }

func (p *concurrencyProbe) enter() {
	n := p.now.Add(1)
	for m := p.peak.Load(); n > m && !p.peak.CompareAndSwap(m, n); m = p.peak.Load() {
	}
	time.Sleep(200 * time.Microsecond) // widen the overlap window
}

func (p *concurrencyProbe) exit() { p.now.Add(-1) }

// probedTrainer is a stubTrainer whose calls pass through a probe.
type probedTrainer struct {
	*stubTrainer
	probe *concurrencyProbe
}

func (p probedTrainer) TrainRound(ctx context.Context, round int, global []float64) (ModelUpdate, error) {
	p.probe.enter()
	defer p.probe.exit()
	return p.stubTrainer.TrainRound(ctx, round, global)
}

// TestFanOutBound pins the bound on a round's goroutines: the smallest W ≥
// min(GOMAXPROCS, n) with n mod W either 0 or ≥ GOMAXPROCS. Neither local
// training nor scoring may run more than W calls at once, and each
// participant trains and is scored exactly once.
func TestFanOutBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ procs, n, w int }{
		{1, 1, 1}, {1, 2, 1}, {1, 5, 1}, {1, 64, 1},
		{2, 1, 1}, {2, 2, 2}, {2, 5, 3}, {2, 64, 2},
		{4, 1, 1}, {4, 2, 2}, {4, 5, 5}, {4, 64, 4},
	} {
		runtime.GOMAXPROCS(c.procs)
		if got := workers(c.n); got != c.w {
			t.Errorf("GOMAXPROCS %d, n %d: workers = %d, want %d", c.procs, c.n, got, c.w)
		}
		var train, score concurrencyProbe
		stubs := make([]*stubTrainer, c.n)
		trainers := make([]LocalTrainer, c.n)
		for i := range trainers {
			stubs[i] = &stubTrainer{id: i, params: []float64{float64(i)}, samples: 1}
			trainers[i] = probedTrainer{stubs[i], &train}
		}
		var scored sync.Map
		e := localEngine(t, EngineConfig{Scorer: ScorerFunc(func(p []float64) (float64, error) {
			score.enter()
			defer score.exit()
			if _, dup := scored.LoadOrStore(p[0], true); dup {
				return 0, fmt.Errorf("update %g scored twice", p[0])
			}
			return 0, nil
		})}, []float64{0}, trainers...)
		if err := e.RunRound(context.Background()); err != nil {
			t.Fatalf("GOMAXPROCS %d, n %d: %v", c.procs, c.n, err)
		}
		for i, s := range stubs {
			if got := s.calls.Load(); got != 1 {
				t.Errorf("GOMAXPROCS %d, n %d: participant %d trained %d times, want 1", c.procs, c.n, i, got)
			}
			if _, ok := scored.Load(float64(i)); !ok {
				t.Errorf("GOMAXPROCS %d, n %d: participant %d never scored", c.procs, c.n, i)
			}
		}
		if p := int(train.peak.Load()); p > c.w {
			t.Errorf("GOMAXPROCS %d, n %d: %d trainers ran at once, bound %d", c.procs, c.n, p, c.w)
		}
		if p := int(score.peak.Load()); p > c.w {
			t.Errorf("GOMAXPROCS %d, n %d: %d scorings ran at once, bound %d", c.procs, c.n, p, c.w)
		}
	}
}

// TestEngineRoundTimeoutIsNotCancellation pins the other side: an expired
// RoundTimeout with every client straggling is a failed round, not an
// interrupt.
func TestEngineRoundTimeoutIsNotCancellation(t *testing.T) {
	e := localEngine(t, EngineConfig{RoundTimeout: 20 * time.Millisecond}, []float64{0},
		&slowTrainer{id: 0}, &slowTrainer{id: 1})
	err := e.RunRound(context.Background())
	if err == nil || !strings.Contains(err.Error(), "only 0/2 sampled clients succeeded") {
		t.Fatalf("all-straggler round returned %v, want the only-k/n error", err)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("round timeout reported as the caller's context ending: %v", err)
	}
}

// TestEngineDropsNonFiniteUpdates pins that a client uploading a NaN or an
// Inf is dropped before scoring: the global model equals the round run
// without that client, and the drop is counted as invalid.
func TestEngineDropsNonFiniteUpdates(t *testing.T) {
	a := &stubTrainer{id: 0, params: []float64{1, 2}, samples: 10}
	b := &stubTrainer{id: 1, params: []float64{3, 5}, samples: 30}
	nan := &stubTrainer{id: 2, params: []float64{1, math.NaN()}, samples: 10}
	inf := &stubTrainer{id: 3, params: []float64{math.Inf(-1), 0}, samples: 10}

	clean := localEngine(t, EngineConfig{}, []float64{0, 0}, a, b)
	if err := clean.RunRound(context.Background()); err != nil {
		t.Fatal(err)
	}
	var dropped []int
	e := localEngine(t, EngineConfig{
		Scorer: ScorerFunc(func(p []float64) (float64, error) {
			if !validUpdate(p, 2) {
				return 0, fmt.Errorf("scored the invalid update %v", p)
			}
			return 0.1, nil
		}),
		OnRound: func(ri RoundInfo) { dropped = ri.Dropped },
	}, []float64{0, 0}, a, nan, b, inf)
	o := obs.New(nil)
	if err := e.RunRound(obs.NewContext(context.Background(), o)); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Global(), clean.Global(); !slices.Equal(got, want) {
		t.Errorf("global with the non-finite clients = %v, want %v (the round without them)", got, want)
	}
	if !slices.Equal(dropped, []int{1, 3}) {
		t.Errorf("Dropped = %v, want [1 3]", dropped)
	}
	if n := o.Counter("fed.dropped_invalid").Value(); n != 2 {
		t.Errorf("fed.dropped_invalid = %d, want 2", n)
	}
}

// TestEngineRejectsMissizedUpdates pins that clients agreeing on a length
// other than the global model's do not replace it: the round fails and the
// global model is unchanged.
func TestEngineRejectsMissizedUpdates(t *testing.T) {
	a := &stubTrainer{id: 0, params: []float64{1, 2, 3}, samples: 1}
	b := &stubTrainer{id: 1, params: []float64{1, 2, 3}, samples: 1}
	e := localEngine(t, EngineConfig{}, []float64{0, 0}, a, b)
	if err := e.RunRound(context.Background()); err == nil {
		t.Fatal("round of wrong-size updates succeeded")
	}
	if got := e.Global(); !slices.Equal(got, []float64{0, 0}) {
		t.Errorf("global = %v after a rejected round, want [0 0]", got)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	tr := NewLocalTransport([]LocalTrainer{&stubTrainer{params: []float64{1}, samples: 1}})
	if _, err := NewEngine(EngineConfig{}, []float64{0}, nil); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewEngine(EngineConfig{}, nil, tr); err == nil {
		t.Error("empty initial params accepted")
	}
	// An engine over no trainers is constructible (members may join later)
	// but cannot run a round.
	if err := localEngine(t, EngineConfig{}, []float64{0}).Run(context.Background(), 1); err == nil {
		t.Error("round over no trainers succeeded")
	}
}

func TestTCPFederationEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Rounds:       3,
		NumClients:   2,
		Initial:      []float64{0, 0},
		RoundTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	serverDone := make(chan struct{})
	var serverFinal []float64
	var serverErr error
	go func() {
		defer close(serverDone)
		serverFinal, serverErr = srv.Serve(ctx, ln)
	}()

	addr := ln.Addr().String()
	clientDone := make(chan []float64, 2)
	clientErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			tr := &stubTrainer{id: i, params: []float64{float64(i + 1), float64(i + 1)}, samples: 10}
			final, err := RunClient(ctx, addr, tr)
			if err != nil {
				clientErrs <- err
				return
			}
			clientDone <- final
		}(i)
	}

	var clientFinals [][]float64
	for len(clientFinals) < 2 {
		select {
		case f := <-clientDone:
			clientFinals = append(clientFinals, f)
		case err := <-clientErrs:
			t.Fatalf("client failed: %v", err)
		case <-ctx.Done():
			t.Fatal("timed out waiting for clients")
		}
	}
	<-serverDone
	if serverErr != nil {
		t.Fatalf("server failed: %v", serverErr)
	}
	// Equal sample counts → average of 1 and 2 = 1.5.
	if math.Abs(serverFinal[0]-1.5) > 1e-12 {
		t.Errorf("server final = %g, want 1.5", serverFinal[0])
	}
	for _, f := range clientFinals {
		if math.Abs(f[0]-serverFinal[0]) > 1e-12 {
			t.Error("client received different final model than server computed")
		}
	}
}

func TestTCPServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{Rounds: 0, NumClients: 1, Initial: []float64{1}}); err == nil {
		t.Error("0 rounds accepted")
	}
	if _, err := NewServer(ServerConfig{Rounds: 1, NumClients: 0, Initial: []float64{1}}); err == nil {
		t.Error("0 clients accepted")
	}
	if _, err := NewServer(ServerConfig{Rounds: 1, NumClients: 1}); err == nil {
		t.Error("empty initial accepted")
	}
}

func TestTCPServerCancelledWhileWaiting(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Rounds: 1, NumClients: 1, Initial: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.Serve(ctx, ln)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled server should return an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not stop after cancellation")
	}
}

func TestRunClientConnectionRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := RunClient(ctx, "127.0.0.1:1", &stubTrainer{params: []float64{1}})
	if err == nil {
		t.Error("connecting to a closed port should fail")
	}
}

func TestEngineClientSampling(t *testing.T) {
	trainers := make([]LocalTrainer, 4)
	stubs := make([]*stubTrainer, 4)
	for i := range trainers {
		s := &stubTrainer{id: i, params: []float64{1}, samples: 10}
		stubs[i] = s
		trainers[i] = s
	}
	var perRound []int
	e := localEngine(t, EngineConfig{
		ClientFraction: 0.5,
		SampleSeed:     3,
		OnRound:        func(ri RoundInfo) { perRound = append(perRound, len(ri.Updates)) },
	}, []float64{0}, trainers...)
	if err := e.Run(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	if len(perRound) != 6 {
		t.Errorf("OnRound fired %d times, want 6", len(perRound))
	}
	for r, n := range perRound {
		if n != 2 {
			t.Errorf("round %d aggregated %d updates, want 2 (fraction 0.5 of 4)", r, n)
		}
	}
	var total int32
	for _, s := range stubs {
		total += s.calls.Load()
	}
	if total != 12 {
		t.Errorf("total trainer calls = %d, want 12 (2 per round × 6)", total)
	}
}

func TestEngineClientFractionValidation(t *testing.T) {
	stub := &stubTrainer{params: []float64{1}, samples: 1}
	tr := NewLocalTransport([]LocalTrainer{stub})
	if _, err := NewEngine(EngineConfig{ClientFraction: -0.1}, []float64{0}, tr); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := NewEngine(EngineConfig{ClientFraction: 1.5}, []float64{0}, tr); err == nil {
		t.Error("fraction > 1 accepted")
	}
	// Tiny fraction still samples at least one client.
	e := localEngine(t, EngineConfig{ClientFraction: 0.01}, []float64{0}, stub)
	if err := e.Run(context.Background(), 1); err != nil {
		t.Errorf("minimum-one sampling failed: %v", err)
	}
}

func TestTCPFederationAdaptiveWeights(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Rounds:     2,
		NumClients: 2,
		Initial:    []float64{0},
		Aggregator: AdaptiveWeight{},
		Scorer: ScorerFunc(func(params []float64) (float64, error) {
			return params[0] * params[0], nil // param magnitude as badness
		}),
		RoundTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan struct{})
	var final []float64
	var serveErr error
	go func() {
		defer close(done)
		final, serveErr = srv.Serve(ctx, ln)
	}()
	addr := ln.Addr().String()
	for i := 0; i < 2; i++ {
		go func(i int) {
			tr := &stubTrainer{id: i, params: []float64{float64(i) * 2}, samples: 10}
			_, _ = RunClient(ctx, addr, tr)
		}(i)
	}
	<-done
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	// Client 0 uploads 0 (MSE 0, better), client 1 uploads 2 (MSE 4):
	// adaptive aggregation must land well below the midpoint 1.
	if final[0] >= 1 {
		t.Errorf("adaptive TCP aggregate = %g, want < 1", final[0])
	}
}

// slowTrainer blocks until its context is cancelled, simulating a straggler
// that respects cancellation.
type slowTrainer struct{ id int }

func (s *slowTrainer) TrainRound(ctx context.Context, round int, _ []float64) (ModelUpdate, error) {
	<-ctx.Done()
	return ModelUpdate{}, ctx.Err()
}

func TestEngineRoundTimeoutDropsStragglers(t *testing.T) {
	fast := &stubTrainer{id: 0, params: []float64{3}, samples: 1}
	slow := &slowTrainer{id: 1}
	var dropped []int
	e := localEngine(t, EngineConfig{
		RoundTimeout: 50 * time.Millisecond,
		OnRound:      func(ri RoundInfo) { dropped = append(dropped, ri.Dropped...) },
	}, []float64{0}, fast, slow)
	start := time.Now()
	if err := e.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("straggler blocked the run for %v", elapsed)
	}
	if final := e.Global(); final[0] != 3 {
		t.Errorf("final = %g, want the fast client's 3", final[0])
	}
	if len(dropped) != 2 || dropped[0] != 1 {
		t.Errorf("dropped = %v, want the straggler each round", dropped)
	}
}
