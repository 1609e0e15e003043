package dht

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
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
	// Store via real TCP round trip (signature survives JSON framing).
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
	if _, err := c.call(obs.SpanContext{}, spanServe, srv.Addr(), wireRequest{Method: "bogus"}); err == nil {
		t.Fatal("unknown method accepted")
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

// TestWireFrameBytesMatchMarshal pins the DHT's request and response
// frames to a 4-byte big-endian length followed by json.Marshal, with
// strings JSON escapes.
func TestWireFrameBytesMatchMarshal(t *testing.T) {
	recs := []StoredRecord{
		{Key: 42, Info: eval.Info{FileID: "<b>&\u2028", OwnerID: "owner&<>", Evaluation: 0.25, Timestamp: 7, Signature: []byte{0, 1, 0xfe}}},
		rec(^ID(0), "plain", 1, 0),
	}
	for _, v := range []any{
		wireRequest{Method: "store", ID: 9, Node: NodeRef{ID: 3, Addr: "127.0.0.1:1&<"}, Records: recs, Replicate: true, Trace: []byte("tc")},
		wireRequest{Method: "retrieve", ID: 1 << 63},
		wireResponse{Error: "dht: <nope> & \u2028"},
		wireResponse{Node: NodeRef{ID: 1, Addr: "a"}, HasNode: true, Nodes: []NodeRef{{ID: 2, Addr: "b"}}, Records: recs},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("frame of %+v:\n got %q\nwant %q", v, buf.Bytes(), want)
		}
	}
}
