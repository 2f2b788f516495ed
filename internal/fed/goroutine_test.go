package fed

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to return to base: what a
// layer spawned must be gone once it has returned. (The exiting goroutines
// may still be counted for an instant after their join, hence the poll.)
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the run:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNoGoroutineLeakEngine: every round of this run times out on a
// straggler; when Run returns no per-client goroutine is left behind.
func TestNoGoroutineLeakEngine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := localEngine(t, EngineConfig{RoundTimeout: 20 * time.Millisecond}, []float64{0},
		&stubTrainer{id: 0, params: []float64{3}, samples: 1}, &slowTrainer{id: 1})
	if err := e.Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base)
}

// TestNoGoroutineLeakTCP: a server runs join, rounds and the final fan-out
// with one healthy client and one that joins and then never speaks, so every
// round drops it at the deadline. When Serve returns — the silent peer's
// connection still open on its side — the accept loop, the handshakes and
// both per-connection readers are gone.
func TestNoGoroutineLeakTCP(t *testing.T) {
	base := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Rounds: 2, NumClients: 2, MinClients: 1, Initial: []float64{0}, RoundTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addr := ln.Addr().String()
	dialDribble(t, addr).send(t, envelope{Type: msgJoin}) // closed by t.Cleanup, after the check

	errs := make(chan error, 2)
	go func() {
		_, err := srv.Serve(ctx, ln)
		errs <- err
	}()
	go func() {
		_, err := RunClient(ctx, addr, &stubTrainer{id: 0, params: []float64{1}, samples: 10})
		errs <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	settleGoroutines(t, base)
}
