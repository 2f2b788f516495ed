package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"goldfish"
	"goldfish/internal/obs"
	"goldfish/internal/tensor"
	"goldfish/internal/version"
)

// TestObsEndpoints boots the server's observability listener on an ephemeral
// port and hits the endpoints a deployment would probe: /healthz must report
// liveness with the version banner, /debug/vars must serve the live metrics
// snapshot.
func TestObsEndpoints(t *testing.T) {
	observer := goldfish.NewObserver(nil)
	observer.Counter("fed.rounds").Add(3)

	srv, ln, err := startObsServer("127.0.0.1:0", observer)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d, want 200", resp.StatusCode)
	}
	if want := "ok goldfish-server " + version.Version; !strings.HasPrefix(string(body), want) {
		t.Errorf("/healthz body = %q, want prefix %q", body, want)
	}

	resp, err = http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/vars status = %d, want 200", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/debug/vars is not snapshot JSON: %v\n%s", err, body)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "fed.rounds" || snap.Counters[0].Value != 3 {
		t.Errorf("/debug/vars counters = %+v, want fed.rounds=3", snap.Counters)
	}
}

// TestNoGoroutineLeakServe drives the -serve wiring — deletion service
// mounted on the obs listener, a request posted, rounds run — and then the
// shutdown runService defers: the Serve goroutine startObsServer spawned and
// every connection handler must be gone afterwards.
func TestNoGoroutineLeakServe(t *testing.T) {
	eng, err := goldfish.New(goldfish.WithDataset("mnist", goldfish.Scale("tiny")), goldfish.WithSeed(1), goldfish.WithClients(2))
	if err != nil {
		t.Fatal(err)
	}
	observer := goldfish.NewObserver(nil)
	svc, err := eng.NewDeletionService(goldfish.DeletionServiceConfig{Observer: observer})
	if err != nil {
		t.Fatal(err)
	}
	// The tensor worker pool lives for the process; start it before the
	// baseline so it is not mistaken for a leak.
	tensor.MatMul(tensor.New(128, 128), tensor.New(128, 128))
	base := runtime.NumGoroutine()

	srv, ln, err := startObsServer("127.0.0.1:0", observer, svc.Mount)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Post("http://"+ln.Addr().String()+"/unlearn", "application/json",
		strings.NewReader(`{"kind":"sample","client":0,"rows":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /unlearn status = %d, want 202", resp.StatusCode)
	}
	if err := eng.Run(goldfish.WithObservability(context.Background(), observer), 2); err != nil {
		t.Fatal(err)
	}
	svc.Settle()
	if st := svc.Stats(); st.Applied != 1 {
		t.Errorf("service applied %d requests, want 1", st.Applied)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the server started:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
