package core

import (
	"context"
	"net"
	"testing"
	"time"

	"goldfish/internal/data"
	"goldfish/internal/fed"
	"goldfish/internal/metrics"
	"goldfish/internal/model"
)

// TestGoldfishClientsOverTCP runs real Goldfish clients against the TCP
// federation server: the full stack — local training, gob wire protocol,
// FedAvg aggregation — end to end.
func TestGoldfishClientsOverTCP(t *testing.T) {
	train, test := tinyMNIST(t)
	parts, err := data.PartitionIID(train, 2, randSource(31))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(10)
	initNet, err := model.Build(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fed.NewServer(fed.ServerConfig{
		Rounds:       4,
		NumClients:   2,
		Initial:      initNet.StateVector(),
		RoundTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	serverDone := make(chan struct{})
	var final []float64
	var serveErr error
	go func() {
		defer close(serverDone)
		final, serveErr = srv.Serve(ctx, ln)
	}()

	addr := ln.Addr().String()
	clientErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			client, err := NewClient(i, cfg, parts[i])
			if err != nil {
				clientErrs <- err
				return
			}
			_, err = fed.RunClient(ctx, addr, client)
			clientErrs <- err
		}(i)
	}
	for i := 0; i < 2; i++ {
		if err := <-clientErrs; err != nil {
			t.Fatalf("client failed: %v", err)
		}
	}
	<-serverDone
	if serveErr != nil {
		t.Fatalf("server failed: %v", serveErr)
	}
	if err := initNet.SetStateVector(final); err != nil {
		t.Fatal(err)
	}
	if acc := metrics.Accuracy(initNet, test, 0); acc < 0.3 {
		t.Errorf("TCP-federated accuracy %g too low after 4 rounds", acc)
	}
}
