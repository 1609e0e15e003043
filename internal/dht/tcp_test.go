package dht

import (
	"errors"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/fault"
	"mdrep/internal/identity"
	"mdrep/internal/obs"
	"mdrep/internal/wire"
)

// startTCPRing launches n nodes on loopback TCP, joins them, and
// stabilises. It returns the nodes and a cleanup function.
func startTCPRing(t *testing.T, n int) []*Node {
	t.Helper()
	client := NewTCPClient()
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		cfg := DefaultNodeConfig()
		cfg.Storage = NewStorage(0, nil)
		// Bind first so the node's address (and ring ID) is the real
		// listen address.
		srv, err := ServeTCP("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(srv.Addr(), client, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.setHandler(node)
		t.Cleanup(func() { _ = srv.Close() })
		if i > 0 {
			if err := node.Join(nodes[0].Self().Addr); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, node)
	}
	for round := 0; round < 2*n+6; round++ {
		for _, node := range nodes {
			node.Stabilize()
		}
	}
	for _, node := range nodes {
		node.FixAllFingers()
	}
	return nodes
}

func TestTCPRingPublishRetrieve(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping TCP ring test in -short mode")
	}
	nodes := startTCPRing(t, 6)
	key := HashKey("tcp-file")
	if err := nodes[1].Publish([]StoredRecord{rec(key, "owner", 0.75, 1)}); err != nil {
		t.Fatal(err)
	}
	got, err := nodes[4].Retrieve(obs.SpanContext{}, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Info.Evaluation != 0.75 {
		t.Fatalf("retrieved %+v", got)
	}
}

func TestTCPRingLookupConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping TCP ring test in -short mode")
	}
	nodes := startTCPRing(t, 5)
	key := HashKey("consistency-check")
	want, err := nodes[0].Lookup(obs.SpanContext{}, key)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes[1:] {
		got, err := n.Lookup(obs.SpanContext{}, key)
		if err != nil {
			t.Fatal(err)
		}
		if got.Addr != want.Addr {
			t.Fatalf("nodes disagree on owner of %v: %s vs %s", key, got.Addr, want.Addr)
		}
	}
}

func TestTCPSignedRecordVerification(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping TCP ring test in -short mode")
	}
	owner, err := identity.Generate(identity.NewDeterministicReader(9))
	if err != nil {
		t.Fatal(err)
	}
	dir := identity.NewDirectory()
	if _, err := dir.Register(owner.PublicKey()); err != nil {
		t.Fatal(err)
	}
	client := NewTCPClient()
	cfg := NodeConfig{SuccessorListLen: 2, Storage: NewStorage(0, dir)}
	srv, err := ServeTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(srv.Addr(), client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.setHandler(node)
	t.Cleanup(func() { _ = srv.Close() })

	info := eval.Info{FileID: "xyz", OwnerID: owner.ID(), Evaluation: 0.6, Timestamp: 3}
	if err := info.Sign(owner); err != nil {
		t.Fatal(err)
	}
	key := HashKey(string(info.FileID))
	// Store via real TCP round trip (the signature survives the frame).
	if err := client.Store(obs.SpanContext{}, node.Self().Addr, []StoredRecord{{Key: key, Info: info}}, false); err != nil {
		t.Fatal(err)
	}
	got, err := client.Retrieve(obs.SpanContext{}, node.Self().Addr, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Info.Evaluation != 0.6 {
		t.Fatalf("retrieved %+v", got)
	}
	// A forged record must be dropped by the verifying store.
	forged := info
	forged.Timestamp = 99
	if err := client.Store(obs.SpanContext{}, node.Self().Addr, []StoredRecord{{Key: key, Info: forged}}, false); err != nil {
		t.Fatal(err)
	}
	got, err = client.Retrieve(obs.SpanContext{}, node.Self().Addr, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Info.Timestamp != 3 {
		t.Fatalf("forged record accepted over TCP: %+v", got)
	}
}

func TestTCPClientUnreachable(t *testing.T) {
	c := &TCPClient{DialTimeout: 200 * time.Millisecond, CallTimeout: 200 * time.Millisecond}
	if err := c.Ping(obs.SpanContext{}, "127.0.0.1:1"); err == nil {
		t.Fatal("ping to closed port succeeded")
	}
}

func TestTCPServerRejectsUnknownMethod(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	net := NewMemNet()
	node, err := NewNode(srv.Addr(), net, DefaultNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.setHandler(node)
	t.Cleanup(func() { _ = srv.Close() })
	c := NewTCPClient()
	_, err = c.call(obs.SpanContext{}, spanServe, srv.Addr(), wireRequest{Method: 0x7f})
	if err == nil || fault.Retryable(err) || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("unknown method: err = %v, want a terminal error reply", err)
	}
}

// TestTCPServerRefusesJSONRequest sends the JSON request of the
// protocol's earlier version: the server closes that connection or
// answers with an error, never leaves it hanging, and goes on serving
// its other connections.
func TestTCPServerRefusesJSONRequest(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", nullHandler{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	open, old := dial(), dial()
	if err := wire.WriteRawFrame(old, append(make([]byte, wire.FrameHeader), `{"method":"ping"}`...)); err != nil {
		t.Fatal(err)
	}
	body, err := wire.ReadRawFrame(old)
	switch {
	case err == nil:
		if resp, err := decodeResponse(body); err != nil || resp.Method != methodError {
			t.Fatalf("reply to a JSON request: %+v, %v", resp, err)
		}
	case errors.Is(err, os.ErrDeadlineExceeded):
		t.Fatal("JSON request left hanging")
	}
	ping, err := requestFrame(&wireRequest{Method: methodPing})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteRawFrame(open, ping); err != nil {
		t.Fatal(err)
	}
	if body, err := wire.ReadRawFrame(open); err != nil || string(body) != "DHR1\x05" {
		t.Fatalf("other connection: %q, %v", body, err)
	}
	c := NewTCPClient()
	defer func() { _ = c.Close() }()
	if err := c.Ping(obs.SpanContext{}, srv.Addr()); err != nil {
		t.Fatalf("ping after a JSON request: %v", err)
	}
}

// TestTCPClientFaultClasses: against a hostile server, an answer that
// does not decode or answers another method is a retryable
// ErrNodeUnreachable, and the server's error reply is terminal.
func TestTCPClientFaultClasses(t *testing.T) {
	for _, tc := range []struct {
		name      string
		reply     string
		retryable bool
	}{
		{"garbage", "not a frame body", true},
		{"truncated answer", "DHR1\x07\x01", true},
		{"answer to another method", "DHR1\x05", true},
		{"error reply", "DHR1\x00no such key", false},
	} {
		srv, err := wire.Serve("127.0.0.1:0", func(rw io.ReadWriter) error {
			if _, err := wire.ReadRawFrame(rw); err != nil {
				return err
			}
			return wire.WriteRawFrame(rw, append(make([]byte, wire.FrameHeader), tc.reply...))
		})
		if err != nil {
			t.Fatal(err)
		}
		c := NewTCPClient()
		_, err = c.Retrieve(obs.SpanContext{}, srv.Addr(), 7)
		_ = c.Close()
		_ = srv.Close()
		if err == nil || fault.Retryable(err) != tc.retryable || errors.Is(err, ErrNodeUnreachable) != tc.retryable {
			t.Errorf("%s: err = %v, want retryable %v", tc.name, err, tc.retryable)
		}
		if !tc.retryable && err.Error() != "no such key" {
			t.Errorf("%s: error text %q", tc.name, err)
		}
	}
}

// TestTCPTraceHeaderStitchesServeSpan: a sampled RPC carries its TRC1
// header, so the server's dht.serve span lands on the caller's trace.
func TestTCPTraceHeaderStitchesServeSpan(t *testing.T) {
	fr := withFlightTracing(t, 6)
	srv, err := ServeTCP("127.0.0.1:0", nullHandler{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c := NewTCPClient()
	defer func() { _ = c.Close() }()
	root := obs.StartRoot("walk.row_fetch")
	if _, err := c.Retrieve(root.Context(), srv.Addr(), 7); err != nil {
		t.Fatal(err)
	}
	root.End()
	if err := srv.Close(); err != nil { // waits for the serve span to end
		t.Fatal(err)
	}
	var names []string
	for _, r := range fr.Snapshot() {
		if r.Trace == root.Context().Trace {
			names = append(names, r.Name)
		}
	}
	if !slices.Contains(names, spanServe) || !slices.Contains(names, spanRPCRetrieve) {
		t.Fatalf("caller's trace holds %q, want %s under %s", names, spanServe, spanRPCRetrieve)
	}
}

func TestTCPClientSurvivesServerRestart(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", nullHandler{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c := NewTCPClient()
	defer func() { _ = c.Close() }()
	if err := c.Ping(obs.SpanContext{}, addr); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err = ServeTCP(addr, nullHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	// The pooled connection died with the first server; the client
	// re-sends on a fresh dial instead of failing the RPC.
	if err := c.Ping(obs.SpanContext{}, addr); err != nil {
		t.Fatalf("ping after restart: %v", err)
	}
}

// stallingHandler blocks every Retrieve until release is closed.
type stallingHandler struct {
	nullHandler
	release   chan struct{}
	retrieves atomic.Int64
}

func (h *stallingHandler) HandleRetrieve(ID) []StoredRecord {
	h.retrieves.Add(1)
	<-h.release
	return nil
}

func TestTCPClientStalledHandlerTimesOutRetryably(t *testing.T) {
	h := &stallingHandler{release: make(chan struct{})}
	srv, err := ServeTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	c := &TCPClient{DialTimeout: time.Second, CallTimeout: 100 * time.Millisecond}
	defer func() { _ = c.Close() }()
	if err := c.Ping(obs.SpanContext{}, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	_, err = c.Retrieve(obs.SpanContext{}, srv.Addr(), 7)
	if !errors.Is(err, ErrNodeUnreachable) || !fault.Retryable(err) {
		t.Fatalf("stalled retrieve: err = %v, want a retryable ErrNodeUnreachable", err)
	}
	close(h.release)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := h.retrieves.Load(); n != 1 {
		t.Fatalf("server saw the timed-out retrieve %d times, want 1", n)
	}
}
