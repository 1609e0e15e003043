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

// The TCP transport frames each message with internal/wire (length-
// prefixed JSON) and runs each RPC as one request/response exchange over
// a persistent connection: the client pools idle connections per node
// address and the server serves requests on a connection until the
// client closes it. A lookup walks several nodes and a random walk
// retrieves many rows, so most RPCs reuse a connection instead of paying
// a TCP handshake each. Sampled requests carry a wire.TraceContext
// header in the Trace field, so the server side continues the caller's
// trace.

type wireRequest struct {
	Method    string         `json:"method"`
	ID        ID             `json:"id,omitempty"`
	Node      NodeRef        `json:"node,omitempty"`
	Records   []StoredRecord `json:"records,omitempty"`
	Replicate bool           `json:"replicate,omitempty"`
	Trace     []byte         `json:"trace,omitempty"`
}

type wireResponse struct {
	Error   string         `json:"error,omitempty"`
	Node    NodeRef        `json:"nodeRef,omitempty"`
	HasNode bool           `json:"hasNode,omitempty"`
	Nodes   []NodeRef      `json:"nodes,omitempty"`
	Records []StoredRecord `json:"records,omitempty"`
}

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
// propagated in the request's Trace header.
func (c *TCPClient) call(sc obs.SpanContext, spanName, addr string, req wireRequest) (resp *wireResponse, err error) {
	sp := obs.StartSpan(sc, spanName)
	sp.AttrStr(attrAddr, addr)
	defer func() { sp.EndErr(err) }()
	req.Trace = sp.Context().MarshalWire()

	var r wireResponse
	err = c.pool.Do(addr, c.DialTimeout, c.CallTimeout, func(rw io.ReadWriter) error {
		if err := wire.WriteFrame(rw, req); err != nil {
			return fmt.Errorf("send to %s: %w", addr, err)
		}
		if err := wire.ReadFrame(rw, &r); err != nil {
			return fmt.Errorf("recv from %s: %w", addr, err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNodeUnreachable, err)
	}
	if r.Error != "" {
		return nil, fault.Terminal(errors.New(r.Error))
	}
	return &r, nil
}

// FindSuccessor implements Client.
func (c *TCPClient) FindSuccessor(sc obs.SpanContext, addr string, id ID) (NodeRef, error) {
	resp, err := c.call(sc, spanRPCFindSuccessor, addr, wireRequest{Method: "find_successor", ID: id})
	if err != nil {
		return NodeRef{}, err
	}
	return resp.Node, nil
}

// Successors implements Client.
func (c *TCPClient) Successors(sc obs.SpanContext, addr string) ([]NodeRef, error) {
	resp, err := c.call(sc, spanRPCSuccessors, addr, wireRequest{Method: "successors"})
	if err != nil {
		return nil, err
	}
	return resp.Nodes, nil
}

// Predecessor implements Client.
func (c *TCPClient) Predecessor(sc obs.SpanContext, addr string) (NodeRef, bool, error) {
	resp, err := c.call(sc, spanRPCPredecessor, addr, wireRequest{Method: "predecessor"})
	if err != nil {
		return NodeRef{}, false, err
	}
	return resp.Node, resp.HasNode, nil
}

// Notify implements Client.
func (c *TCPClient) Notify(sc obs.SpanContext, addr string, self NodeRef) error {
	_, err := c.call(sc, spanRPCNotify, addr, wireRequest{Method: "notify", Node: self})
	return err
}

// Ping implements Client.
func (c *TCPClient) Ping(sc obs.SpanContext, addr string) error {
	_, err := c.call(sc, spanRPCPing, addr, wireRequest{Method: "ping"})
	return err
}

// Store implements Client.
func (c *TCPClient) Store(sc obs.SpanContext, addr string, recs []StoredRecord, replicate bool) error {
	_, err := c.call(sc, spanRPCStore, addr, wireRequest{Method: "store", Records: recs, Replicate: replicate})
	return err
}

// Retrieve implements Client.
func (c *TCPClient) Retrieve(sc obs.SpanContext, addr string, key ID) ([]StoredRecord, error) {
	resp, err := c.call(sc, spanRPCRetrieve, addr, wireRequest{Method: "retrieve", ID: key})
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
// no handler is set are dropped.
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

// serve answers one request read from rw.
func (s *TCPServer) serve(rw io.ReadWriter) error {
	var req wireRequest
	if err := wire.ReadFrame(rw, &req); err != nil {
		return err
	}
	// A corrupt or absent trace header yields the zero context, and the
	// serve span roots a trace of its own — tracing never fails a
	// request.
	sp := obs.StartSpan(obs.SpanContextFromWire(req.Trace), spanServe)
	sp.AttrStr(attrMethod, req.Method)
	h := s.getHandler()
	if h == nil {
		sp.EndErr(errors.New("dht: node not attached yet")) //mdrep:allow faultwrap: feeds the serve span's status only, never returned to a retry loop
		return wire.WriteFrame(rw, wireResponse{Error: "dht: node not attached yet"})
	}
	resp := s.dispatch(h, req, sp.Context())
	if resp.Error != "" {
		sp.EndErr(errors.New(resp.Error)) //mdrep:allow faultwrap: feeds the serve span's status only; the client re-tags the wire error
	} else {
		sp.End()
	}
	return wire.WriteFrame(rw, resp)
}

func (s *TCPServer) dispatch(h handler, req wireRequest, sc obs.SpanContext) wireResponse {
	switch req.Method {
	case "find_successor":
		ref, err := h.HandleFindSuccessor(sc, req.ID)
		if err != nil {
			return wireResponse{Error: err.Error()}
		}
		return wireResponse{Node: ref}
	case "successors":
		return wireResponse{Nodes: h.HandleSuccessors()}
	case "predecessor":
		ref, ok := h.HandlePredecessor()
		return wireResponse{Node: ref, HasNode: ok}
	case "notify":
		h.HandleNotify(req.Node)
		return wireResponse{}
	case "ping":
		return wireResponse{}
	case "store":
		h.HandleStore(sc, req.Records, req.Replicate)
		return wireResponse{}
	case "retrieve":
		return wireResponse{Records: h.HandleRetrieve(req.ID)}
	default:
		return wireResponse{Error: fmt.Sprintf("dht: unknown method %q", req.Method)}
	}
}
