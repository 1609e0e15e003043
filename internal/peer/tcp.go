package peer

import (
	"fmt"
	"io"
	"sync"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/fault"
	"mdrep/internal/identity"
	"mdrep/internal/obs"
	"mdrep/internal/wire"
)

// The TCP exchange lets participants fetch each other's signed evaluation
// lists over the network (§4.1 step 4). Each fetch is one
// request/response exchange of internal/wire frames, over a connection
// the client keeps for later fetches from the same peer:
//
//	→ "EXQ1", method "evaluations", the optional TRC1 trace header
//	← "EXR1", the evaluation list | "EXR1", the serving peer's error
//
// The bodies have one fixed binary layout (codec.go). A list writes each
// owner, timestamp and list signature once per run of records that share
// them, and each record as its file, evaluation bits and signature.
//
// Addresses are resolved through a Resolver (peer ID → host:port); in a
// deployment this mapping rides on the DHT like any other record.

// Resolver maps peer IDs to transport addresses.
type Resolver interface {
	// Resolve returns the host:port serving the peer's evaluation list.
	Resolve(id identity.PeerID) (string, error)
}

// StaticResolver is a fixed ID → address table.
type StaticResolver struct {
	mu    sync.RWMutex
	addrs map[identity.PeerID]string
}

// NewStaticResolver returns an empty resolver.
func NewStaticResolver() *StaticResolver {
	return &StaticResolver{addrs: make(map[identity.PeerID]string)}
}

// Set binds an ID to an address.
func (r *StaticResolver) Set(id identity.PeerID, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addrs[id] = addr
}

// Resolve implements Resolver.
func (r *StaticResolver) Resolve(id identity.PeerID) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	addr, ok := r.addrs[id]
	if !ok {
		return "", fault.Unreachable(fmt.Errorf("peer: no address for %s", id))
	}
	return addr, nil
}

var _ Resolver = (*StaticResolver)(nil)

// TCPExchange implements Network over TCP, keeping idle connections to
// each peer for later fetches.
type TCPExchange struct {
	resolver Resolver
	// DialTimeout and CallTimeout bound each fetch.
	DialTimeout, CallTimeout time.Duration

	obs  *ExchangeObs
	pool wire.Pool
}

// Instrument counts fetches and wire bytes into o. Call before the
// exchange is shared across goroutines.
func (e *TCPExchange) Instrument(o *ExchangeObs) { e.obs = o }

// NewTCPExchange returns a client with 2s dial and 5s call timeouts.
func NewTCPExchange(resolver Resolver) *TCPExchange {
	return &TCPExchange{resolver: resolver, DialTimeout: 2 * time.Second, CallTimeout: 5 * time.Second}
}

// Close closes the exchange's idle connections. Fetches after Close
// still work, each on a connection of its own.
func (e *TCPExchange) Close() error { return e.pool.Close() }

// FetchEvaluations implements Network.
func (e *TCPExchange) FetchEvaluations(sc obs.SpanContext, target identity.PeerID) (infos []eval.Info, err error) {
	sp := obs.StartSpan(sc, spanFetch)
	sp.AttrStr(attrTarget, string(target))
	defer func() { sp.EndErr(err) }()
	addr, err := e.resolver.Resolve(target)
	if err != nil {
		return nil, err
	}
	req, err := appendRequest(make([]byte, wire.FrameHeader, 64), exchangeRequest{Method: methodEvaluations, Trace: sp.Context().MarshalWire()})
	if err != nil {
		return nil, err
	}
	var resp exchangeResponse
	err = e.pool.Do(addr, e.DialTimeout, e.CallTimeout, func(rw io.ReadWriter) error {
		e.obs.countFetch()
		rw = e.obs.wrap(rw)
		if err := wire.WriteRawFrame(rw, req); err != nil {
			return fmt.Errorf("send to %s: %w", addr, err)
		}
		body, err := wire.ReadRawFrame(rw)
		if err == nil {
			resp, err = decodeResponse(body)
		}
		if err != nil {
			return fmt.Errorf("recv from %s: %w", addr, err)
		}
		return nil
	})
	if err != nil {
		// Transport failures are tagged retryable (fault.ErrUnreachable);
		// an explicit error frame from the peer below stays terminal.
		return nil, fault.Unreachable(fmt.Errorf("peer: %s: %w", target, err))
	}
	if resp.Refused {
		return nil, fault.Terminal(fmt.Errorf("peer: %s: %s", target, resp.Error))
	}
	return resp.Evaluations, nil
}

var _ Network = (*TCPExchange)(nil)

// ExchangeServer serves one peer's evaluation list over TCP.
type ExchangeServer struct {
	srv    *wire.Server
	source func() ([]eval.Info, error)

	mu  sync.Mutex
	obs *ExchangeObs
}

// Instrument counts served requests and wire bytes into o, from the
// next request to arrive on, also on connections already open.
func (s *ExchangeServer) Instrument(o *ExchangeObs) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = o
}

func (s *ExchangeServer) observer() *ExchangeObs {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obs
}

// ServeExchange listens on addr (":0" for ephemeral) and serves the
// evaluation list produced by source — typically (*Peer).SignedEvaluations.
func ServeExchange(addr string, source func() ([]eval.Info, error)) (*ExchangeServer, error) {
	s := &ExchangeServer{source: source}
	srv, err := wire.Serve(addr, s.serve)
	if err != nil {
		return nil, fault.Terminal(fmt.Errorf("peer: listen %s: %w", addr, err))
	}
	s.srv = srv
	return s, nil
}

// Addr returns the bound listen address.
func (s *ExchangeServer) Addr() string { return s.srv.Addr() }

// Close stops the listener and all connections, then waits for the
// requests being served to finish.
func (s *ExchangeServer) Close() error { return s.srv.Close() }

// serve answers one request read from rw. A body that is not a request
// closes the connection; an unknown method gets an error reply.
func (s *ExchangeServer) serve(rw io.ReadWriter) error {
	o := s.observer()
	rw = o.wrap(rw)
	body, err := wire.ReadRawFrame(rw)
	if err != nil {
		return err
	}
	req, err := decodeRequest(body)
	if err != nil {
		return err
	}
	o.countServe()
	sp := obs.StartSpan(obs.SpanContextFromWire(req.Trace), spanServe)
	var resp exchangeResponse
	if req.Method == methodEvaluations {
		resp.Evaluations, err = s.source()
	} else {
		err = fmt.Errorf("unknown method %d", req.Method) //mdrep:allow faultwrap: feeds the error reply and the serve span's status only, never returned to a retry loop
	}
	if err != nil {
		resp = exchangeResponse{Refused: true, Error: err.Error()}
	}
	sp.EndErr(err)
	return wire.WriteRawFrame(rw, appendResponse(make([]byte, wire.FrameHeader), &resp))
}
