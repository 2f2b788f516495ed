package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/loss"
	"goldfish/internal/model"
	"goldfish/internal/optim"
	"goldfish/internal/unlearn"
)

// testConfig mirrors the unlearn package's fast tiny-data configuration.
func testConfig(classes int) core.Config {
	return core.Config{
		Model:       model.Config{Arch: model.ArchMLP, InC: 1, InH: 12, InW: 12, Classes: classes, Seed: 1},
		Loss:        loss.NewGoldfish(),
		Opt:         optim.SGDConfig{LR: 0.1, Momentum: 0.9, ClipNorm: 5},
		LocalEpochs: 3,
		BatchSize:   32,
		TempAlpha:   1,
		Seed:        1,
	}
}

// newTestFederation builds a tiny federation; strategy "" selects the
// default (goldfish).
func newTestFederation(t *testing.T, strategy string, clients int) *unlearn.Federation {
	t.Helper()
	spec, err := data.SpecMNIST(data.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := data.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.PartitionIID(train, clients, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	f, err := unlearn.NewFederation(unlearn.Config{Client: testConfig(10), Strategy: strategy}, parts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCoalescedBatchMatchesSequential is the coalescing-correctness test:
// a batch full of duplicate and subsumed requests, folded in by the service
// at one round boundary, must produce bit-identical model state to issuing
// the deduplicated deletions directly against a second identically-seeded
// federation. The retrain baseline makes the comparison airtight — its
// final model depends only on the remaining data and the deletion-call
// sequence.
func TestCoalescedBatchMatchesSequential(t *testing.T) {
	const rounds = 3
	ctx := context.Background()

	served := newTestFederation(t, "retrain", 3)
	direct := newTestFederation(t, "retrain", 3)

	// A class every participant still holds plenty of.
	class := served.Partition(0).LabelsFor([]int{0})[0]

	svc, err := New(Config{Federation: served, QueueCap: 16, RecoveryRounds: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The redundant request mix: overlapping row sets, an exact duplicate,
	// a duplicate class deletion, and samples subsumed by a client removal.
	reqs := []Request{
		{Kind: KindSample, Client: 0, Rows: []int{1, 3}},
		{Kind: KindSample, Client: 0, Rows: []int{3, 5}}, // overlaps; merges
		{Kind: KindSample, Client: 1, Rows: []int{2}},
		{Kind: KindSample, Client: 1, Rows: []int{2}}, // duplicate; coalesces
		{Kind: KindClass, Class: class},
		{Kind: KindClass, Class: class},               // duplicate; coalesces
		{Kind: KindClient, Client: 2},                 //
		{Kind: KindSample, Client: 2, Rows: []int{0}}, // subsumed; coalesces
	}
	tickets := make([]Ticket, len(reqs))
	for i, r := range reqs {
		if tickets[i], err = svc.Enqueue(r); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := served.Run(ctx, rounds, nil); err != nil {
		t.Fatal(err)
	}
	svc.Settle()

	// The deduplicated equivalent, in the service's application order:
	// samples ascending client, classes, removals descending position.
	if err := direct.RequestDeletion(0, []int{1, 3, 5}); err != nil {
		t.Fatal(err)
	}
	if err := direct.RequestDeletion(1, []int{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := direct.RequestClassDeletion(class); err != nil {
		t.Fatal(err)
	}
	if err := direct.RemoveClient(2, true); err != nil {
		t.Fatal(err)
	}
	if err := direct.Run(ctx, rounds, nil); err != nil {
		t.Fatal(err)
	}

	if got, want := served.Global(), direct.Global(); !reflect.DeepEqual(got, want) {
		t.Errorf("coalesced batch diverged from sequential deletions: %d vs %d params, first %g vs %g",
			len(got), len(want), got[0], want[0])
	}
	for i := 0; i < served.NumClients(); i++ {
		if got, want := served.RemainingRows(i), direct.RemainingRows(i); !reflect.DeepEqual(got, want) {
			t.Errorf("client %d remaining rows diverged: %v vs %v", i, got, want)
		}
	}

	// Lifecycle accounting: nothing failed, the three redundant requests
	// coalesced, and everything recovered after its recovery round.
	st := svc.Stats()
	if st.Failed != 0 {
		t.Errorf("failed = %d, want 0", st.Failed)
	}
	if st.Coalesced != 3 {
		t.Errorf("coalesced = %d, want 3", st.Coalesced)
	}
	if st.Applied != int64(len(reqs)) || st.Recovered != int64(len(reqs)) {
		t.Errorf("applied/recovered = %d/%d, want %d/%d", st.Applied, st.Recovered, len(reqs), len(reqs))
	}
	if st.RoundsToForget.Count != int64(len(reqs)) || st.RoundsToForget.P50 <= 0 {
		t.Errorf("rounds-to-forget quantiles = %+v, want count %d and positive p50", st.RoundsToForget, len(reqs))
	}
	for i, want := range []bool{false, false, false, true, false, true, false, true} {
		got, ok := svc.Lookup(tickets[i].ID)
		if !ok {
			t.Fatalf("ticket %d vanished", tickets[i].ID)
		}
		if got.Status != StatusRecovered {
			t.Errorf("ticket %d status = %s, want recovered", got.ID, got.Status)
		}
		if got.Coalesced != want {
			t.Errorf("ticket %d coalesced = %v, want %v", got.ID, got.Coalesced, want)
		}
	}
}

// TestBackpressure checks the bounded queue: beyond capacity Enqueue
// rejects with ErrQueueFull, a round boundary drains the queue, the service
// accepts the rejected request afterwards, and every accepted request is
// forgotten without a failure.
func TestBackpressure(t *testing.T) {
	f := newTestFederation(t, "", 2)
	svc, err := New(Config{Federation: f, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := svc.Enqueue(Request{Kind: KindSample, Client: 0, Rows: []int{i}}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if _, err := svc.Enqueue(Request{Kind: KindSample, Client: 0, Rows: []int{9}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity enqueue: err = %v, want ErrQueueFull", err)
	}
	if d := svc.QueueDepth(); d != 2 {
		t.Fatalf("queue depth = %d, want 2", d)
	}
	if err := f.Run(context.Background(), 1, nil); err != nil {
		t.Fatal(err)
	}
	if d := svc.QueueDepth(); d != 0 {
		t.Fatalf("queue depth after round = %d, want 0 (drained)", d)
	}
	if _, err := svc.Enqueue(Request{Kind: KindSample, Client: 0, Rows: []int{9}}); err != nil {
		t.Fatalf("enqueue after drain: %v", err)
	}
	st := svc.Stats()
	if st.Rejected != 1 || st.Accepted != 3 {
		t.Errorf("accepted/rejected = %d/%d, want 3/1", st.Accepted, st.Rejected)
	}
	if svc.RetryAfter() <= 0 {
		t.Errorf("RetryAfter = %v, want positive", svc.RetryAfter())
	}
	// The retried request and the two before it all get forgotten: nothing
	// fails, and each lands in the rounds-to-forget histogram.
	if err := f.Run(context.Background(), 2, nil); err != nil {
		t.Fatal(err)
	}
	svc.Settle()
	st = svc.Stats()
	if st.Failed != 0 || st.Recovered != 3 {
		t.Errorf("failed/recovered = %d/%d, want 0/3", st.Failed, st.Recovered)
	}
	if q := st.RoundsToForget; q.Count != 3 || q.P99 <= 0 {
		t.Errorf("rounds-to-forget quantiles = %+v, want 3 observations and a positive p99", q)
	}
}

// TestIdleServiceIsTrainingNoOp: attaching a service that never receives a
// request must not perturb training — the global model after the same rounds
// is bit-equal to a same-seed federation with no service at all.
func TestIdleServiceIsTrainingNoOp(t *testing.T) {
	const rounds = 3
	ctx := context.Background()
	bare := newTestFederation(t, "", 3)
	served := newTestFederation(t, "", 3)
	svc, err := New(Config{Federation: served})
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Run(ctx, rounds, nil); err != nil {
		t.Fatal(err)
	}
	if err := served.Run(ctx, rounds, nil); err != nil {
		t.Fatal(err)
	}
	svc.Settle()
	if !reflect.DeepEqual(bare.Global(), served.Global()) {
		t.Error("an idle service changed the trained global model")
	}
	if st := svc.Stats(); st.Round != rounds-1 || st.Accepted != 0 || st.Applied != 0 {
		t.Errorf("idle service stats = %+v, want last boundary %d and no requests", st, rounds-1)
	}
}

// TestEnqueueValidation checks the fast-reject paths.
func TestEnqueueValidation(t *testing.T) {
	f := newTestFederation(t, "", 2)
	svc, err := New(Config{Federation: f})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []Request{
		{Kind: "bogus"},
		{Kind: KindSample, Client: 5, Rows: []int{0}},
		{Kind: KindSample, Client: 0},
		{Kind: KindSample, Client: 0, Rows: []int{1 << 30}},
		{Kind: KindClass, Class: -1},
		{Kind: KindClass, Class: 10},
		{Kind: KindClient, Client: -1},
	} {
		if _, err := svc.Enqueue(req); err == nil {
			t.Errorf("Enqueue(%+v) accepted, want error", req)
		}
	}
	if st := svc.Stats(); st.Accepted != 0 {
		t.Errorf("accepted = %d, want 0 (invalid requests are not queued)", st.Accepted)
	}
}

// TestConcurrentBurst hammers Enqueue and the read-side accessors from many
// goroutines while the federation runs — the -race regression for the
// queue's locking. Every accepted request must end the run accounted for:
// applied, failed, or still queued.
func TestConcurrentBurst(t *testing.T) {
	f := newTestFederation(t, "", 3)
	svc, err := New(Config{Federation: f, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}

	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(context.Background(), 4, nil) }()

	const workers, perWorker = 6, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				row := (w*perWorker + i) % 20
				_, err := svc.Enqueue(Request{Kind: KindSample, Client: w % 3, Rows: []int{row}})
				if err != nil && !errors.Is(err, ErrQueueFull) && !strings.Contains(err.Error(), "out of range") {
					t.Errorf("worker %d: unexpected enqueue error: %v", w, err)
				}
				_ = svc.QueueDepth()
				_ = svc.Stats()
				_, _ = svc.Lookup(int64(i + 1))
				_ = svc.RetryAfter()
			}
		}(w)
	}
	wg.Wait()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	svc.Settle()

	st := svc.Stats()
	if st.Accepted != st.Applied+st.Failed+int64(st.QueueDepth) {
		t.Errorf("accounting: accepted %d != applied %d + failed %d + queued %d",
			st.Accepted, st.Applied, st.Failed, st.QueueDepth)
	}
	if st.Accepted == 0 {
		t.Error("no requests accepted at all")
	}
}

// TestHTTPEndpoints drives the mounted HTTP surface end to end.
func TestHTTPEndpoints(t *testing.T) {
	f := newTestFederation(t, "", 2)
	svc, err := New(Config{Federation: f, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	svc.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/unlearn", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Accepted request → 202 with a ticket.
	resp := post(`{"kind":"sample","client":0,"rows":[1,2]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid POST: status = %d, want 202", resp.StatusCode)
	}
	var tk Ticket
	if err := json.NewDecoder(resp.Body).Decode(&tk); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if tk.ID != 1 || tk.Status != StatusQueued || tk.Kind != KindSample {
		t.Errorf("ticket = %+v, want id 1 queued sample", tk)
	}

	// Full queue → 429 with Retry-After.
	resp = post(`{"kind":"sample","client":1,"rows":[0]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-capacity POST: status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	_ = resp.Body.Close()

	// Invalid bodies → 400.
	for _, body := range []string{`{"kind":"bogus"}`, `{"kind":"sample","client":0,"rows":[0],"extra":1}`, `not json`} {
		resp = post(body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status = %d, want 400", body, resp.StatusCode)
		}
		_ = resp.Body.Close()
	}

	// Wrong methods → 405.
	for _, url := range []string{"/unlearn", "/unlearn/stats", "/unlearn/requests/1"} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("DELETE %s: status = %d, want 405", url, resp.StatusCode)
		}
		_ = resp.Body.Close()
	}

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// Stats reflect the accepted and rejected requests.
	resp, body := get("/unlearn/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stats: status = %d, want 200", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 1 || st.Rejected != 1 || st.QueueDepth != 1 || st.QueueCap != 1 {
		t.Errorf("stats = %+v, want accepted 1 rejected 1 depth 1/1", st)
	}

	// Ticket lookup: present, absent, malformed.
	if resp, _ := get("/unlearn/requests/1"); resp.StatusCode != http.StatusOK {
		t.Errorf("GET ticket 1: status = %d, want 200", resp.StatusCode)
	}
	if resp, _ := get("/unlearn/requests/999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET ticket 999: status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get("/unlearn/requests/abc"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET ticket abc: status = %d, want 400", resp.StatusCode)
	}
}

// TestHTTPBodyLimit: a body longer than any valid request is refused with
// 413 before it is decoded, while a request listing every row of the largest
// partition still fits.
func TestHTTPBodyLimit(t *testing.T) {
	f := newTestFederation(t, "", 2)
	svc, err := New(Config{Federation: f})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	svc.Mount(mux)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/unlearn", strings.NewReader(body)))
		return rec
	}

	oversized := `{"kind":"sample","client":0,"rows":[` + strings.Repeat("0,", 1<<20) + `0]}`
	rec := post(oversized)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST: status = %d, want 413", rec.Code)
	}
	var herr httpError
	if err := json.Unmarshal(rec.Body.Bytes(), &herr); err != nil || herr.Error == "" {
		t.Errorf("oversized POST: body %q is not a JSON error (%v)", rec.Body, err)
	}
	if st := svc.Stats(); st.Accepted != 0 {
		t.Errorf("oversized POST moved Accepted to %d", st.Accepted)
	}

	largest := 0
	for i := 1; i < f.NumClients(); i++ {
		if f.Partition(i).Len() > f.Partition(largest).Len() {
			largest = i
		}
	}
	rows := make([]int, f.Partition(largest).Len())
	for i := range rows {
		rows[i] = i
	}
	full, err := json.Marshal(Request{Kind: KindSample, Client: largest, Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	if rec := post(string(full)); rec.Code != http.StatusAccepted {
		t.Errorf("full-partition POST (%d bytes): status = %d, want 202: %s", len(full), rec.Code, rec.Body)
	}
}
