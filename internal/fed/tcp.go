package fed

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Wire protocol: each connection carries a stream of gob-encoded envelopes.
// The server waits for NumClients joins, then drives the shared round
// Engine with a TCP transport: broadcast msgTrain, collect one msgUpdate
// per client, aggregate, repeat, and finish with msgDone carrying the final
// global model.

type msgType uint8

const (
	msgJoin msgType = iota + 1
	msgJoinAck
	msgTrain
	msgUpdate
	msgDone
	msgError
)

// envelope is the single wire message type (field presence depends on Type).
type envelope struct {
	Type   msgType
	Client int
	Round  int
	Params []float64
	Update ModelUpdate
	Error  string
}

// ServerConfig configures a TCP federation server.
type ServerConfig struct {
	// Aggregator combines updates; defaults to FedAvg.
	Aggregator Aggregator
	// Scorer, when set, fills each update's MSE before aggregation.
	Scorer Scorer
	// Rounds is the number of global rounds. Must be positive.
	Rounds int
	// NumClients is the exact number of clients to wait for. Must be
	// positive.
	NumClients int
	// MinClients is the minimum number of successful updates per round;
	// fewer aborts the run. Defaults to NumClients (a wire failure is
	// fatal, matching the synchronous protocol).
	MinClients int
	// ClientFraction, when in (0,1), trains only a random subset of the
	// connected clients each round; 0 or 1 trains everyone.
	ClientFraction float64
	// Initial is the initial global parameter vector.
	Initial []float64
	// RoundTimeout bounds one full round (broadcast + collect). 0 disables
	// the bound, matching EngineConfig: rounds then block until every
	// sampled client responds or ctx is cancelled — a slow-but-healthy
	// client is never dropped.
	RoundTimeout time.Duration
	// SampleSeed drives the client-sampling randomness.
	SampleSeed int64
	// OnRound, when set, is invoked after every aggregation.
	OnRound func(RoundInfo)
}

// joinTimeout bounds the join handshake of a single connection when no
// RoundTimeout is configured; see Serve.
const joinTimeout = time.Minute

// Server runs a federation over TCP.
type Server struct {
	cfg ServerConfig
}

// NewServer validates the configuration.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("fed: rounds must be positive, got %d", cfg.Rounds)
	}
	if cfg.NumClients <= 0 {
		return nil, fmt.Errorf("fed: NumClients must be positive, got %d", cfg.NumClients)
	}
	if len(cfg.Initial) == 0 {
		return nil, fmt.Errorf("fed: empty initial parameters")
	}
	if cfg.MinClients <= 0 {
		cfg.MinClients = cfg.NumClients
	}
	if cfg.MinClients > cfg.NumClients {
		return nil, fmt.Errorf("fed: MinClients %d exceeds NumClients %d", cfg.MinClients, cfg.NumClients)
	}
	return &Server{cfg: cfg}, nil
}

// clientConn is one connected client with its gob codecs. After the join
// handshake a single reader goroutine owns the decoder for the connection's
// lifetime (see startReader); rounds receive envelopes through inbox.
type clientConn struct {
	id   int
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder

	// inbox carries decoded envelopes from the reader goroutine; it is
	// closed when the reader exits, after which readErr holds the decode
	// failure (the channel close orders the write before any receive).
	inbox   chan envelope
	readErr error
	// done, closed by Serve on shutdown, releases a reader parked on an
	// inbox send.
	done chan struct{}
}

// startReader starts the connection's single reader goroutine. Every
// inbound envelope is decoded here and only here, with no read deadline, so
// a round deadline expiring never aborts a decode mid-message: the gob
// stream stays framed on message boundaries, and a straggler dropped in one
// round has its late update decoded whole and discarded by a later round's
// collector — the client rejoins instead of being lost to a corrupted
// stream. Serve unblocks the decode on shutdown by closing the connection.
func (c *clientConn) startReader() {
	c.inbox = make(chan envelope, 1)
	c.done = make(chan struct{})
	go func() {
		defer close(c.inbox)
		for {
			var env envelope
			if err := c.dec.Decode(&env); err != nil {
				c.readErr = err
				return
			}
			select {
			case c.inbox <- env:
			case <-c.done:
				return
			}
		}
	}()
}

// tcpTransport adapts the connected clients to the round Engine.
type tcpTransport struct {
	clients []*clientConn
}

var _ Transport = (*tcpTransport)(nil)

// NumClients implements Transport.
func (t *tcpTransport) NumClients() int { return len(t.clients) }

// ExecuteRound implements Transport: broadcast the global model to the
// sampled clients, then collect one update from each before the round
// deadline (carried by ctx). Stale updates from earlier rounds — a dropped
// straggler finally responding — are consumed and discarded here, which is
// what lets that client take part in the current round again.
func (t *tcpTransport) ExecuteRound(ctx context.Context, round int, participants []int, global []float64) []RoundResult {
	results := make([]RoundResult, len(participants))
	var wg sync.WaitGroup
	for k, idx := range participants {
		c := t.clients[idx]
		if c.inbox == nil {
			// Transports assembled without Serve (tests, custom wiring)
			// get their reader goroutine on first use.
			c.startReader()
		}
		results[k].Index = idx
		if err := c.enc.Encode(envelope{Type: msgTrain, Round: round, Params: global}); err != nil {
			results[k].Err = fmt.Errorf("fed: round %d: sending model to client %d: %w", round, c.id, err)
			continue
		}
		wg.Add(1)
		go func(k int, c *clientConn) {
			defer wg.Done()
			for {
				select {
				case env, ok := <-c.inbox:
					if !ok {
						results[k].Err = fmt.Errorf("fed: round %d: reading update from client %d: %w", round, c.id, c.readErr)
						return
					}
					if env.Type == msgError {
						results[k].Err = fmt.Errorf("fed: round %d: client %d failed: %s", round, c.id, env.Error)
						return
					}
					if env.Type != msgUpdate {
						results[k].Err = fmt.Errorf("fed: round %d: client %d sent %d, want update", round, c.id, env.Type)
						return
					}
					if env.Update.Round != round {
						// A straggler that was dropped in an earlier round
						// delivered its stale update late; discard it and keep
						// receiving — the next envelope is this round's.
						continue
					}
					u := env.Update
					u.ClientID = c.id
					results[k].Update = u
					return
				case <-ctx.Done():
					results[k].Err = fmt.Errorf("fed: round %d: waiting for update from client %d: %w", round, c.id, ctx.Err())
					return
				}
			}
		}(k, c)
	}
	wg.Wait()
	return results
}

// Serve accepts NumClients connections on ln, runs all rounds through the
// shared round engine, distributes the final model, and returns it. The
// listener is closed on return and when ctx is cancelled.
func (s *Server) Serve(ctx context.Context, ln net.Listener) (final []float64, err error) {
	defer func() {
		if cerr := ln.Close(); cerr != nil && err == nil && !errors.Is(cerr, net.ErrClosed) {
			err = fmt.Errorf("fed: closing listener: %w", cerr)
		}
	}()

	// Unblock Accept on cancellation.
	stop := context.AfterFunc(ctx, func() { _ = ln.Close() })
	defer stop()

	clients := make([]*clientConn, 0, s.cfg.NumClients)
	defer func() {
		for _, c := range clients {
			close(c.done)      // release a reader parked on an inbox send
			_ = c.conn.Close() // unblock a decode in progress
		}
	}()

	// Handshakes run one goroutine per connection, so a slow or malformed
	// joiner (port scanner, wedged peer) burns only its own join bound and
	// never head-of-line-blocks the other clients. The accept loop keeps
	// accepting until the listener closes (Serve's deferred Close); joinCtx
	// ends the admission window, after which late handshakes close their
	// connections instead of delivering them.
	joinCtx, cancelJoin := context.WithCancel(ctx)
	defer cancelJoin()
	joined := make(chan *clientConn)
	acceptErr := make(chan error, 1)
	go func() {
		for {
			conn, aerr := ln.Accept()
			if aerr != nil {
				select {
				case acceptErr <- aerr:
				default:
				}
				return
			}
			go s.handshake(joinCtx, conn, joined)
		}
	}()

	for len(clients) < s.cfg.NumClients {
		select {
		case c := <-joined:
			c.id = len(clients)
			if werr := c.enc.Encode(envelope{Type: msgJoinAck, Client: c.id}); werr != nil {
				_ = c.conn.Close()
				continue // joiner vanished between handshake and ack; keep waiting
			}
			c.startReader()
			clients = append(clients, c)
		case aerr := <-acceptErr:
			if ctx.Err() != nil {
				return nil, fmt.Errorf("fed: cancelled while waiting for clients: %w", ctx.Err())
			}
			return nil, fmt.Errorf("fed: accept: %w", aerr)
		}
	}
	cancelJoin() // roster full: stop admitting

	engine, err := NewEngine(EngineConfig{
		Aggregator:     s.cfg.Aggregator,
		Scorer:         s.cfg.Scorer,
		MinClients:     s.cfg.MinClients,
		ClientFraction: s.cfg.ClientFraction,
		RoundTimeout:   s.cfg.RoundTimeout,
		SampleSeed:     s.cfg.SampleSeed,
		OnRound:        s.cfg.OnRound,
	}, s.cfg.Initial, &tcpTransport{clients: clients})
	if err != nil {
		return nil, err
	}
	if err := engine.Run(ctx, s.cfg.Rounds); err != nil {
		s.broadcastError(clients, err.Error())
		return nil, err
	}

	global := engine.Global()
	if err := s.distributeFinal(clients, global); err != nil {
		return nil, err
	}
	return global, nil
}

// handshake performs one connection's join exchange: bounded read of the
// msgJoin hello, then delivery to the accept owner. The bound derives from
// the join context rather than wall-clock arithmetic on the socket: hctx
// expires after the join bound or as soon as ctx is done, and either way
// the AfterFunc forces an already-expired read deadline so the read
// unblocks immediately. A connection that fails the handshake, or completes
// it after the roster filled, is closed here.
func (s *Server) handshake(ctx context.Context, conn net.Conn, joined chan<- *clientConn) {
	joinBound := s.cfg.RoundTimeout
	if joinBound <= 0 {
		joinBound = joinTimeout
	}
	hctx, cancel := context.WithTimeout(ctx, joinBound)
	defer cancel()
	stopJoin := context.AfterFunc(hctx, func() { _ = conn.SetReadDeadline(time.Unix(1, 0)) })
	c := &clientConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
	var hello envelope
	derr := c.dec.Decode(&hello)
	stopJoin()
	if derr != nil || hello.Type != msgJoin {
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	select {
	case joined <- c:
	case <-ctx.Done():
		_ = conn.Close()
	}
}

// distributeFinal fans the final global model out to every client. A failed
// write must not starve the remaining clients of their msgDone — each
// delivery is attempted regardless of earlier failures and the errors are
// joined.
func (s *Server) distributeFinal(clients []*clientConn, global []float64) error {
	var errs []error
	for _, c := range clients {
		if werr := c.enc.Encode(envelope{Type: msgDone, Params: global}); werr != nil {
			errs = append(errs, fmt.Errorf("fed: sending final model to client %d: %w", c.id, werr))
		}
	}
	return errors.Join(errs...)
}

func (s *Server) broadcastError(clients []*clientConn, msg string) {
	for _, c := range clients {
		_ = c.enc.Encode(envelope{Type: msgError, Error: msg})
	}
}

// RunClient connects to a federation server at addr, participates in every
// round with the given trainer, and returns the final global model.
func RunClient(ctx context.Context, addr string, trainer LocalTrainer) ([]float64, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fed: dialing %s: %w", addr, err)
	}
	defer func() { _ = conn.Close() }()

	// Unblock blocking reads/writes on cancellation.
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()

	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(envelope{Type: msgJoin}); err != nil {
		return nil, fmt.Errorf("fed: sending join: %w", err)
	}
	var ack envelope
	if err := dec.Decode(&ack); err != nil {
		return nil, fmt.Errorf("fed: reading join ack: %w", err)
	}
	if ack.Type != msgJoinAck {
		return nil, fmt.Errorf("fed: unexpected join reply type %d", ack.Type)
	}
	id := ack.Client

	for {
		var env envelope
		if err := dec.Decode(&env); err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("fed: cancelled: %w", ctx.Err())
			}
			return nil, fmt.Errorf("fed: reading server message: %w", err)
		}
		switch env.Type {
		case msgTrain:
			update, terr := trainer.TrainRound(ctx, env.Round, env.Params)
			if terr != nil {
				_ = enc.Encode(envelope{Type: msgError, Error: terr.Error()})
				return nil, fmt.Errorf("fed: local training round %d: %w", env.Round, terr)
			}
			update.ClientID = id
			update.Round = env.Round
			if err := enc.Encode(envelope{Type: msgUpdate, Update: update}); err != nil {
				return nil, fmt.Errorf("fed: sending update: %w", err)
			}
		case msgDone:
			return env.Params, nil
		case msgError:
			return nil, fmt.Errorf("fed: server error: %s", env.Error)
		default:
			return nil, fmt.Errorf("fed: unexpected message type %d", env.Type)
		}
	}
}
