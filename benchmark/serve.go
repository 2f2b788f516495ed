package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"goldfish"
)

// serve-steady is the open-loop workload: single-row deletion requests
// arrive over HTTP on a fixed schedule, whatever the service's progress,
// while the federation runs rounds back to back. The model is tiny on
// purpose: per-round fixed costs (state-vector copies, goroutine fan-out,
// kernels below the parallel threshold), the service's queue/coalesce/settle
// path and the HTTP surface are the largest share of a round they will ever
// be, so a kernel speed-up should barely move this workload.
//
// The queue drains completely at every round boundary, so a backlog cannot
// grow from one boundary to the next; overload shows as rejections (HTTP
// 429), which count as failed operations.
const (
	serveWarm     = 24  // warm-up rounds, part of set-up: keeps setup_s above 2.5 s in the box's fast hours too
	serveRate     = 8   // requests per second
	serveRequests = 160 // at refSeconds: serveRate × refSeconds
	serveQueueCap = 64
	serveRecovery = 2 // rounds after application until a ticket is recovered
)

// served is one scheduled request and what happened to it.
type served struct {
	client, row int
	due         time.Duration // offset from the window start
	lateS       float64       // how long after its due time it was sent
	postS       float64       // HTTP round trip
	id          int64         // ticket id; 0 when the request was not accepted
	status      int           // HTTP status (0: transport error)
	ttfS        float64       // due time → the boundary it was seen recovered at
	ttfRounds   int
	settled     bool
}

func (b *bench) runServe(ctx context.Context) error {
	p, err := b.preset("mnist", goldfish.ScaleSmall)
	if err != nil {
		return err
	}
	setup := b.rec.begin("harness/setup", 0, -1)
	train, test, err := b.generate(p, setup)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.opt.seed))
	parts, err := b.partition(setup, func() ([]*goldfish.Dataset, error) {
		return goldfish.PartitionIID(train, trainClients, rng)
	})
	if err != nil {
		return err
	}
	f, err := newFedRun(p.Epochs, goldfish.WithPreset(p), goldfish.WithPartitions(parts), goldfish.WithUnlearner("goldfish"))
	if err != nil {
		return err
	}
	svc, err := f.e.NewDeletionService(goldfish.DeletionServiceConfig{QueueCap: serveQueueCap, RecoveryRounds: serveRecovery})
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	svc.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	if err := b.runRounds(ctx, f, b.pick(serveWarm, 2), nil, setup); err != nil {
		return err
	}
	b.rec.end(setup)
	b.markSetup()

	// The schedule: seeded (client, row) picks, no row twice, one request
	// every 1/serveRate seconds. A traced run serves a quarter of it twice.
	n := b.scaled(serveRequests, 8, 8)
	if b.opt.trace {
		n = quarter(n)
	}
	windows := 1
	if b.opt.trace {
		windows = 2
	}
	var pairs [][2]int
	for c, part := range parts {
		for r := 0; r < part.Len(); r++ {
			pairs = append(pairs, [2]int{c, r})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	if windows*n > len(pairs) {
		return fmt.Errorf("schedule needs %d distinct rows, the federation holds %d", windows*n, len(pairs))
	}

	var w window
	var mem memDelta
	mem.start()
	reqs, err := b.serveWindow(ctx, f, svc, srv, pairs[:n], &w)
	if err != nil {
		return err
	}
	mem.stop()
	all := reqs
	b.finishWindow(&w)
	var ttf []float64
	for _, r := range reqs {
		if r.settled {
			ttf = append(ttf, r.ttfS)
		}
	}
	if len(ttf) > 0 { // else the run fails: both metrics are defined here and missing
		b.setE2ESamples("ttf_p50_s", ttf)
		b.rep.EndToEnd["ttf_p90_s"] = metric{Value: quantile(ttf, 0.9), Unit: units["ttf_p90_s"], N: len(ttf)}
	}

	if b.opt.trace {
		mem.report(b, len(w.rounds))
		var tw tracedWindow
		traced, err := b.serveWindow(b.observe(ctx, &tw), f, svc, srv, pairs[n:2*n], &tw.window)
		if err != nil {
			return err
		}
		all = append(all, traced...)
		if err := b.reportFed(&tw, median(w.rounds)); err != nil {
			return err
		}
	}

	// Output checks: every request accepted, none rejected or failed, every
	// ticket settled, and the deleted rows gone from the federation.
	st := svc.Stats()
	accepted, unsettled, present := 0, 0, 0
	deleted := map[int][]int{} // client → rows requested
	for _, r := range all {
		if r.status == http.StatusAccepted {
			accepted++
		}
		if !r.settled {
			unsettled++
		}
		deleted[r.client] = append(deleted[r.client], r.row)
	}
	for client, rows := range deleted {
		present += stillListed(f.e, client, rows)
	}
	b.rep.OpsFailed += len(all) - accepted
	b.check("accepted", accepted == len(all), "%d of %d requests accepted (HTTP 202)", accepted, len(all))
	b.check("rejected", st.Rejected == 0, "%d rejected with a full queue", st.Rejected)
	b.check("failed", st.Failed == 0, "%d failed on application", st.Failed)
	b.check("unsettled", unsettled == 0, "%d tickets never seen recovered", unsettled)
	b.check("deleted_rows_absent", present == 0, "%d deleted rows still listed", present)

	if b.opt.trace {
		var late, post, rounds, batch []float64
		perBoundary := map[int]float64{}
		for _, r := range all {
			late = append(late, r.lateS*1e3)
			post = append(post, r.postS*1e3)
			if r.settled {
				rounds = append(rounds, float64(r.ttfRounds))
			}
			if t, ok := svc.Lookup(r.id); ok {
				perBoundary[t.AppliedRound]++
			}
		}
		for _, n := range perBoundary {
			batch = append(batch, n)
		}
		b.setLayer("serve.http_post_ms", median(post))
		b.setLayer("serve.gen_late_p99_ms", quantile(late, 0.99))
		b.setLayer("serve.ttf_rounds_p50", median(rounds))
		b.setLayer("serve.batch_size_p50", median(batch))
		b.setLayer("serve.coalesced_share", float64(st.Coalesced)/float64(st.Accepted))
		b.setLayer("serve.rejected_share", float64(st.Rejected)/float64(st.Accepted+st.Rejected))
		if err := b.replayServe(ctx, p, parts); err != nil {
			return err
		}
		cfg := p.ClientConfig()
		return b.replayLayers(ctx, replayInput{
			cfg: cfg, part: parts[0], test: test, clients: len(parts), agg: goldfish.FedAvg{},
			state: f.e.Global(), deletions: true,
		})
	}
	return nil
}

// serveWindow runs one open-loop window: a generator goroutine posts the
// scheduled requests on one keep-alive connection while this goroutine
// drives rounds until the generator is done and every accepted ticket has
// been seen recovered. It returns only after the generator has exited.
func (b *bench) serveWindow(ctx context.Context, f *fedRun, svc *goldfish.DeletionService, srv *httptest.Server,
	pairs [][2]int, w *window) ([]*served, error) {

	reqs := make([]*served, len(pairs))
	for i, pr := range pairs {
		reqs[i] = &served{client: pr[0], row: pr[1], due: time.Duration(i) * time.Second / serveRate}
	}
	b.op(len(reqs))
	wid := b.rec.begin("harness/serve_window", 0, f.e.Round())
	defer b.rec.end(wid)

	client := srv.Client()
	defer client.CloseIdleConnections()
	start := time.Now()
	var mu sync.Mutex // guards the served fields the two goroutines share
	sent := 0
	gctx, stop := context.WithCancel(ctx)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, r := range reqs {
			select {
			case <-gctx.Done():
				return
			case <-time.After(time.Until(start.Add(r.due))):
			}
			t0 := time.Now()
			id, status := postDeletion(gctx, client, srv.URL, r.client, r.row)
			mu.Lock()
			r.lateS = t0.Sub(start.Add(r.due)).Seconds()
			r.postS = time.Since(t0).Seconds()
			r.id, r.status = id, status
			sent++
			mu.Unlock()
		}
	}()

	// The driver: rounds back to back. After each, settle and look up every
	// ticket not yet seen recovered; a request's time-to-forget runs from
	// its due time to this boundary.
	var runErr error
	for {
		if runErr = b.runRounds(ctx, f, 1, w, wid); runErr != nil {
			break
		}
		svc.Settle()
		now := time.Since(start)
		mu.Lock()
		pending := 0
		for _, r := range reqs[:sent] {
			if r.id == 0 || r.settled {
				continue
			}
			t, ok := svc.Lookup(r.id)
			switch {
			case ok && t.Status == "recovered":
				r.settled = true
				r.ttfS = (now - r.due).Seconds()
				r.ttfRounds = t.RecoveredRound - t.EnqueuedRound
			case ok && t.Status != "failed":
				pending++
			}
		}
		finished := sent == len(reqs) && pending == 0
		mu.Unlock()
		if finished {
			break
		}
	}
	stop()
	<-done
	return reqs, runErr
}

// postDeletion POSTs one single-row sample deletion and returns the ticket
// id and HTTP status (0, 0 on a transport error).
func postDeletion(ctx context.Context, client *http.Client, base string, clientID, row int) (int64, int) {
	body, err := json.Marshal(goldfish.DeletionRequest{Kind: goldfish.DeleteSample, Client: clientID, Rows: []int{row}})
	if err != nil {
		return 0, 0
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/unlearn", bytes.NewReader(body))
	if err != nil {
		return 0, 0
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	var ticket goldfish.DeletionTicket
	if resp.StatusCode != http.StatusAccepted {
		// Drain so the keep-alive connection is reused.
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return 0, resp.StatusCode
		}
		return 0, resp.StatusCode
	}
	if err := json.NewDecoder(resp.Body).Decode(&ticket); err != nil {
		return 0, 0
	}
	return ticket.ID, resp.StatusCode
}

// replayServe times the service's own entry points on a scratch service
// over a scratch federation of the workload's shape: Enqueue, Lookup, and
// BeforeRound draining a full queue of serveQueueCap requests.
func (b *bench) replayServe(ctx context.Context, p goldfish.Preset, parts []*goldfish.Dataset) error {
	root := b.rec.begin("harness/replay_serve", 0, -1)
	defer b.rec.end(root)
	e, err := goldfish.New(goldfish.WithPreset(p), goldfish.WithPartitions(parts), goldfish.WithUnlearner("goldfish"))
	if err != nil {
		return err
	}
	svc, err := e.NewDeletionService(goldfish.DeletionServiceConfig{QueueCap: serveQueueCap, RecoveryRounds: serveRecovery})
	if err != nil {
		return err
	}
	reps := b.pick(5, 1)
	var enqueue, lookup, before []float64
	row := 0
	for rep := 0; rep < reps; rep++ {
		var last int64
		for i := 0; i < serveQueueCap; i++ {
			req := goldfish.DeletionRequest{Kind: goldfish.DeleteSample, Client: i % len(parts), Rows: []int{row / len(parts)}}
			row++
			enqueue = append(enqueue, b.rec.timed("serve.enqueue", root, -1, func() {
				var t goldfish.DeletionTicket
				t, err = svc.Enqueue(req)
				last = t.ID
			}))
			if err != nil {
				return err
			}
		}
		lookup = append(lookup, b.rec.timed("serve.lookup", root, -1, func() { svc.Lookup(last) }))
		before = append(before, b.rec.timed("serve.before_round", root, -1, func() { err = svc.BeforeRound(ctx, rep) }))
		if err != nil {
			return err
		}
	}
	b.setLayer("serve.enqueue_us", median(enqueue)*1e6)
	b.setLayer("serve.lookup_us", median(lookup)*1e6)
	b.setLayer("serve.before_round_ms", median(before)*1e3)
	return nil
}
