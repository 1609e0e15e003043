package dht

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"mdrep/internal/fault"
	"mdrep/internal/obs"
	"mdrep/internal/wire"
)

// The TCP transport runs each RPC as one request/response exchange of
// internal/wire frames over a persistent connection: the client pools
// idle connections per node address and the server serves requests on a
// connection until the client closes it. A lookup walks several nodes
// and a random walk retrieves many rows, so most RPCs reuse a connection
// instead of paying a TCP handshake each.
//
//	→ "DHQ1", the method and its fields, the optional TRC1 trace header
//	← "DHR1", the method and its answer | "DHR1", 0 and the node's error
//
// The bodies have one fixed binary layout (codec.go): a method byte and
// only that method's fields, each record as its key, file, owner,
// evaluation bits, timestamp and signature. Sampled requests carry a
// wire.TraceContext header, so the server side continues the caller's
// trace.

// TCPClient implements Client over TCP, keeping idle connections to
// each node for later calls.
type TCPClient struct {
	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
	// CallTimeout bounds a full request/response exchange.
	CallTimeout time.Duration

	pool wire.Pool
}

// NewTCPClient returns a client with 2s dial and 5s call timeouts.
func NewTCPClient() *TCPClient {
	return &TCPClient{DialTimeout: 2 * time.Second, CallTimeout: 5 * time.Second}
}

// Close closes the client's idle connections. Calls after Close still
// work, each on a connection of its own.
func (c *TCPClient) Close() error { return c.pool.Close() }

// call runs one framed exchange inside an RPC span: a child of sc when
// the caller is traced, a fresh root otherwise, with the span context
// propagated in the request's trace header. A transport failure, and an
// answer that does not decode or answers another method, is a retryable
// ErrNodeUnreachable; the serving node's error is terminal.
func (c *TCPClient) call(sc obs.SpanContext, spanName, addr string, req wireRequest) (resp wireResponse, err error) {
	sp := obs.StartSpan(sc, spanName)
	sp.AttrStr(attrAddr, addr)
	defer func() { sp.EndErr(err) }()
	req.Trace = sp.Context().MarshalWire()
	frame, err := requestFrame(&req)
	if err != nil {
		return wireResponse{}, err
	}
	err = c.pool.Do(addr, c.DialTimeout, c.CallTimeout, func(rw io.ReadWriter) error {
		if err := wire.WriteRawFrame(rw, frame); err != nil {
			return fmt.Errorf("send to %s: %w", addr, err)
		}
		body, err := wire.ReadRawFrame(rw)
		if err == nil {
			resp, err = decodeResponse(body)
		}
		if err == nil && resp.Method != req.Method && resp.Method != methodError {
			err = fmt.Errorf("%w: %s answer to a %s request", wire.ErrMalformed, resp.Method, req.Method)
		}
		if err != nil {
			return fmt.Errorf("recv from %s: %w", addr, err)
		}
		return nil
	})
	if err != nil {
		return wireResponse{}, fmt.Errorf("%w: %v", ErrNodeUnreachable, err)
	}
	if resp.Method == methodError {
		return wireResponse{}, fault.Terminal(errors.New(resp.Error))
	}
	return resp, nil
}

// FindSuccessor implements Client.
func (c *TCPClient) FindSuccessor(sc obs.SpanContext, addr string, id ID) (NodeRef, error) {
	resp, err := c.call(sc, spanRPCFindSuccessor, addr, wireRequest{Method: methodFindSuccessor, ID: id})
	if err != nil {
		return NodeRef{}, err
	}
	return resp.Node, nil
}

// Successors implements Client.
func (c *TCPClient) Successors(sc obs.SpanContext, addr string) ([]NodeRef, error) {
	resp, err := c.call(sc, spanRPCSuccessors, addr, wireRequest{Method: methodSuccessors})
	if err != nil {
		return nil, err
	}
	return resp.Nodes, nil
}

// Predecessor implements Client.
func (c *TCPClient) Predecessor(sc obs.SpanContext, addr string) (NodeRef, bool, error) {
	resp, err := c.call(sc, spanRPCPredecessor, addr, wireRequest{Method: methodPredecessor})
	if err != nil {
		return NodeRef{}, false, err
	}
	return resp.Node, resp.HasNode, nil
}

// Notify implements Client.
func (c *TCPClient) Notify(sc obs.SpanContext, addr string, self NodeRef) error {
	_, err := c.call(sc, spanRPCNotify, addr, wireRequest{Method: methodNotify, Node: self})
	return err
}

// Ping implements Client.
func (c *TCPClient) Ping(sc obs.SpanContext, addr string) error {
	_, err := c.call(sc, spanRPCPing, addr, wireRequest{Method: methodPing})
	return err
}

// Store implements Client.
func (c *TCPClient) Store(sc obs.SpanContext, addr string, recs []StoredRecord, replicate bool) error {
	_, err := c.call(sc, spanRPCStore, addr, wireRequest{Method: methodStore, Records: recs, Replicate: replicate})
	return err
}

// Retrieve implements Client.
func (c *TCPClient) Retrieve(sc obs.SpanContext, addr string, key ID) ([]StoredRecord, error) {
	resp, err := c.call(sc, spanRPCRetrieve, addr, wireRequest{Method: methodRetrieve, ID: key})
	if err != nil {
		return nil, err
	}
	return resp.Records, nil
}

var _ Client = (*TCPClient)(nil)

// TCPServer serves a node's handler over TCP.
type TCPServer struct {
	srv *wire.Server

	mu      sync.Mutex
	handler handler
}

// setHandler attaches (or replaces) the handler; requests arriving while
// no handler is set get an error reply.
func (s *TCPServer) setHandler(h handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handler = h
}

func (s *TCPServer) getHandler() handler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handler
}

// ServeTCP starts serving h on addr (e.g. "127.0.0.1:0") and returns the
// running server; Addr reports the bound address. The caller must Close.
func ServeTCP(addr string, h handler) (*TCPServer, error) {
	s := &TCPServer{handler: h}
	srv, err := wire.Serve(addr, s.serve)
	if err != nil {
		return nil, fmt.Errorf("dht: listen %s: %w", addr, err)
	}
	s.srv = srv
	return s, nil
}

// Addr returns the bound listen address.
func (s *TCPServer) Addr() string { return s.srv.Addr() }

// Close stops the listener and all connections, then waits for the
// requests being served to finish.
func (s *TCPServer) Close() error { return s.srv.Close() }

// serve answers one request read from rw. A body that is not a request
// closes the connection; an unknown method gets an error reply.
func (s *TCPServer) serve(rw io.ReadWriter) error {
	body, err := wire.ReadRawFrame(rw)
	if err != nil {
		return err
	}
	req, err := decodeRequest(body)
	if err != nil {
		return err
	}
	// A corrupt or absent trace header yields the zero context, and the
	// serve span roots a trace of its own — tracing never fails a
	// request.
	sp := obs.StartSpan(obs.SpanContextFromWire(req.Trace), spanServe)
	sp.AttrStr(attrMethod, req.Method.String())
	resp := wireResponse{Method: methodError, Error: "dht: node not attached yet"}
	if h := s.getHandler(); h != nil {
		resp = s.dispatch(h, req, sp.Context())
	}
	if resp.Method == methodError {
		sp.EndErr(errors.New(resp.Error)) //mdrep:allow faultwrap: feeds the serve span's status only; the client re-tags the wire error
	} else {
		sp.End()
	}
	return wire.WriteRawFrame(rw, responseFrame(&resp))
}

func (s *TCPServer) dispatch(h handler, req wireRequest, sc obs.SpanContext) wireResponse {
	resp := wireResponse{Method: req.Method}
	switch req.Method {
	case methodFindSuccessor:
		ref, err := h.HandleFindSuccessor(sc, req.ID)
		if err != nil {
			return wireResponse{Method: methodError, Error: err.Error()}
		}
		resp.Node = ref
	case methodSuccessors:
		resp.Nodes = h.HandleSuccessors()
	case methodPredecessor:
		resp.Node, resp.HasNode = h.HandlePredecessor()
	case methodNotify:
		h.HandleNotify(req.Node)
	case methodPing:
	case methodStore:
		h.HandleStore(sc, req.Records, req.Replicate)
	case methodRetrieve:
		resp.Records = h.HandleRetrieve(req.ID)
	default:
		return wireResponse{Method: methodError, Error: fmt.Sprintf("dht: unknown method %d", req.Method)}
	}
	return resp
}
