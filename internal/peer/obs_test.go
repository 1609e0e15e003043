package peer

import (
	"testing"

	"mdrep/internal/eval"
	"mdrep/internal/identity"
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
)

func TestExchangeByteCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP exchange test")
	}
	dir := identity.NewDirectory()
	resolver := NewStaticResolver()
	network := NewTCPExchange(resolver)
	reg := metrics.NewRegistry()
	xobs := NewExchangeObs(reg)

	id, err := identity.Generate(identity.NewDeterministicReader(41))
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
	p.Vote("counted-file", 0.75)
	srv, err := ServeExchange("127.0.0.1:0", p.SignedEvaluations)
	if err != nil {
		t.Fatal(err)
	}
	resolver.Set(p.ID(), srv.Addr())
	fetch := func() {
		t.Helper()
		infos, err := network.FetchEvaluations(obs.SpanContext{}, p.ID())
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 1 {
			t.Fatalf("fetched %d evaluations, want 1", len(infos))
		}
	}

	// An uncounted fetch opens the pooled connection; instrumenting both
	// sides afterwards must still count the two fetches made over it.
	fetch()
	network.Instrument(xobs)
	srv.Instrument(xobs)
	fetch()
	fetch()
	// The client holds the whole reply before the server has counted
	// its own write; once both sides are closed every byte is counted.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := network.Close(); err != nil {
		t.Fatal(err)
	}

	in := reg.Counter("peer_exchange_bytes_total", "dir", "in").Load()
	out := reg.Counter("peer_exchange_bytes_total", "dir", "out").Load()
	if in == 0 || out == 0 {
		t.Fatalf("byte counters not moving: in=%d out=%d", in, out)
	}
	// Client and server share the observer, so both directions see the
	// requests and the responses; the totals must match exactly.
	if in != out {
		t.Fatalf("in=%d != out=%d with a shared observer", in, out)
	}
	if got := reg.Counter("peer_exchange_fetches_total").Load(); got != 2 {
		t.Errorf("fetches = %d, want 2", got)
	}
	if got := reg.Counter("peer_exchange_serves_total").Load(); got != 2 {
		t.Errorf("serves = %d, want 2", got)
	}
}

func TestExchangeUninstrumented(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP exchange test")
	}
	// A nil observer must be inert end to end.
	var o *ExchangeObs
	o.countFetch()
	o.countServe()
	resolver := NewStaticResolver()
	network := NewTCPExchange(resolver)
	srv, err := ServeExchange("127.0.0.1:0", func() ([]eval.Info, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	resolver.Set("ghost", srv.Addr())
	if _, err := network.FetchEvaluations(obs.SpanContext{}, "ghost"); err != nil {
		t.Fatal(err)
	}
}
