package peer

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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

func TestTCPExchangeUnknownMethod(t *testing.T) {
	srv, err := ServeExchange("127.0.0.1:0", func() ([]eval.Info, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, exchangeRequest{Method: "bogus"}); err != nil {
		t.Fatal(err)
	}
	var resp exchangeResponse
	if err := wire.ReadFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "unknown method") {
		t.Fatalf("response: %+v", resp)
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

// TestExchangeFrameBytesMatchMarshal pins the evaluation exchange's
// request and response frames, list signatures included, to a 4-byte
// big-endian length followed by json.Marshal, with strings JSON escapes.
func TestExchangeFrameBytesMatchMarshal(t *testing.T) {
	infos := []eval.Info{
		{FileID: "<i>&\u2028", OwnerID: "o&<>", Evaluation: 0.125, Timestamp: 3, Signature: []byte{9, 8}, ListSignature: []byte{7, 6, 2}},
		{FileID: "plain", OwnerID: "o&<>", Evaluation: 1, Timestamp: 3},
	}
	for _, v := range []any{
		exchangeRequest{Method: "evaluations", Trace: []byte("<trace>")},
		exchangeRequest{Method: "\u2028&"},
		exchangeResponse{Evaluations: infos},
		exchangeResponse{Error: "unknown method \"<&>\""},
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
