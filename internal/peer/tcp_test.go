package peer

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/identity"
	"mdrep/internal/obs"
	"mdrep/internal/wire"

	"net"
)

// tcpTestnet builds two peers connected over real TCP exchange servers.
func tcpTestnet(t *testing.T) (alice, bob *Peer, resolver *StaticResolver) {
	t.Helper()
	dir := identity.NewDirectory()
	resolver = NewStaticResolver()
	network := NewTCPExchange(resolver)

	mk := func(seed uint64) *Peer {
		t.Helper()
		id, err := identity.Generate(identity.NewDeterministicReader(seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dir.Register(id.PublicKey()); err != nil {
			t.Fatal(err)
		}
		p, err := New(id, dir, network, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ServeExchange("127.0.0.1:0", p.SignedEvaluations)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		resolver.Set(p.ID(), srv.Addr())
		return p
	}
	return mk(31), mk(32), resolver
}

func TestTCPExchangeSyncAndJudge(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP exchange test")
	}
	alice, bob, _ := tcpTestnet(t)
	alice.Vote("shared", 0.9)
	bob.Vote("shared", 0.88)
	n, err := alice.SyncPeer(bob.ID())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("synced %d entries over TCP", n)
	}
	if alice.TrustRow()[bob.ID()] <= 0 {
		t.Fatal("no trust after TCP sync")
	}
}

func TestTCPExchangeUnknownPeer(t *testing.T) {
	alice, _, _ := tcpTestnet(t)
	ghost, err := identity.Generate(identity.NewDeterministicReader(99))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.SyncPeer(ghost.ID()); err == nil {
		t.Fatal("sync with unresolvable peer succeeded")
	}
}

// exchangeConn dials srv for a test that speaks the protocol by hand.
func exchangeConn(t *testing.T, srv *ExchangeServer) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// roundTrip sends a request with method on conn and decodes the reply.
func roundTrip(t *testing.T, conn net.Conn, method byte) exchangeResponse {
	t.Helper()
	req, err := appendRequest(make([]byte, wire.FrameHeader), exchangeRequest{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteRawFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	body, err := wire.ReadRawFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestTCPExchangeUnknownMethod(t *testing.T) {
	srv, err := ServeExchange("127.0.0.1:0", func() ([]eval.Info, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	resp := roundTrip(t, exchangeConn(t, srv), 7)
	if !resp.Refused || !strings.Contains(resp.Error, "unknown method") {
		t.Fatalf("response: %+v", resp)
	}
}

// TestTCPExchangeRefusesJSONRequest sends the JSON request of the
// protocol's earlier version: the server closes that connection or
// answers with an error, never leaves it hanging, and goes on serving
// its other connections.
func TestTCPExchangeRefusesJSONRequest(t *testing.T) {
	infos := []eval.Info{{FileID: "f", OwnerID: "o", Evaluation: 0.5}}
	srv, err := ServeExchange("127.0.0.1:0", func() ([]eval.Info, error) { return infos, nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	open := exchangeConn(t, srv)
	old := exchangeConn(t, srv)
	if err := wire.WriteFrame(old, map[string]string{"method": "evaluations"}); err != nil {
		t.Fatal(err)
	}
	body, err := wire.ReadRawFrame(old)
	switch {
	case err == nil:
		if resp, err := decodeResponse(body); err != nil || !resp.Refused {
			t.Fatalf("reply to a JSON request: %+v, %v", resp, err)
		}
	case errors.Is(err, os.ErrDeadlineExceeded):
		t.Fatal("JSON request left hanging")
	}
	if resp := roundTrip(t, open, methodEvaluations); resp.Refused || len(resp.Evaluations) != 1 {
		t.Fatalf("other connection: %+v", resp)
	}
	r := NewStaticResolver()
	r.Set("o", srv.Addr())
	e := NewTCPExchange(r)
	defer func() { _ = e.Close() }()
	if got, err := e.FetchEvaluations(obs.SpanContext{}, "o"); err != nil || len(got) != 1 {
		t.Fatalf("fetch after a JSON request: %v, %v", got, err)
	}
}

func TestStaticResolver(t *testing.T) {
	r := NewStaticResolver()
	if _, err := r.Resolve("nobody"); err == nil {
		t.Fatal("unknown ID resolved")
	}
	r.Set("someone", "127.0.0.1:1234")
	addr, err := r.Resolve("someone")
	if err != nil || addr != "127.0.0.1:1234" {
		t.Fatalf("Resolve = %q, %v", addr, err)
	}
}

func TestTCPExchangeDialFailure(t *testing.T) {
	r := NewStaticResolver()
	r.Set("dead", "127.0.0.1:1")
	e := NewTCPExchange(r)
	e.DialTimeout = 200 * time.Millisecond
	if _, err := e.FetchEvaluations(obs.SpanContext{}, "dead"); err == nil {
		t.Fatal("fetch from closed port succeeded")
	}
}

func TestTCPExchangeSurvivesServerRestart(t *testing.T) {
	serve := func(addr string) *ExchangeServer {
		t.Helper()
		srv, err := ServeExchange(addr, func() ([]eval.Info, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return srv
	}
	srv := serve("127.0.0.1:0")
	r := NewStaticResolver()
	r.Set("restarting", srv.Addr())
	e := NewTCPExchange(r)
	defer func() { _ = e.Close() }()
	if _, err := e.FetchEvaluations(obs.SpanContext{}, "restarting"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	serve(srv.Addr())
	if _, err := e.FetchEvaluations(obs.SpanContext{}, "restarting"); err != nil {
		t.Fatalf("fetch after restart: %v", err)
	}
}
