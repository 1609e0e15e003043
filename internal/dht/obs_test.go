package dht

import (
	"strings"
	"testing"
	"time"

	"mdrep/internal/metrics"
	"mdrep/internal/obs"
)

func fakeObsClock() func() time.Time {
	now := time.Unix(0, 0)
	return func() time.Time {
		now = now.Add(50 * time.Microsecond)
		return now
	}
}

func TestRetryClientInstrument(t *testing.T) {
	inner := &flakyClient{failures: 2, err: ErrNodeUnreachable}
	rc := NewRetryClient(inner, RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond}, 1)
	rc.SetSleep(nil)
	reg := metrics.NewRegistry()
	rc.Instrument(reg, fakeObsClock())

	if err := rc.Store(obs.SpanContext{}, "a", nil, false); err != nil {
		t.Fatalf("store should succeed on 3rd attempt: %v", err)
	}
	if _, err := rc.Retrieve(obs.SpanContext{}, "a", 1); err != nil {
		t.Fatal(err)
	}

	// Counters are registry-backed now: the client view and the exported
	// series are the same instrument.
	if got := reg.Counter("dht_rpc_attempts_total").Load(); got != rc.Metrics.Attempts.Load() {
		t.Errorf("registry attempts %d != client attempts %d", got, rc.Metrics.Attempts.Load())
	}
	if got := reg.Counter("dht_rpc_retries_total").Load(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}

	// Per-op latency: one span per logical call, covering all attempts.
	if got := reg.Histogram("dht_rpc_seconds", metrics.DurationBuckets, "op", "store").Count(); got != 1 {
		t.Errorf("store spans = %d, want 1", got)
	}
	if got := reg.Histogram("dht_rpc_seconds", metrics.DurationBuckets, "op", "retrieve").Count(); got != 1 {
		t.Errorf("retrieve spans = %d, want 1", got)
	}
	if sum := reg.Histogram("dht_rpc_seconds", metrics.DurationBuckets, "op", "store").Sum(); sum <= 0 {
		t.Errorf("store latency sum = %v, want > 0 with the fake clock", sum)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `dht_rpc_seconds_count{op="store"} 1`) {
		t.Errorf("exposition missing store latency series:\n%s", b.String())
	}
}

func TestNodeInstrument(t *testing.T) {
	reg := metrics.NewRegistry()
	r := buildRing(t, 5)
	for _, n := range r.Nodes {
		n.Instrument(reg)
	}
	via := r.Nodes[4]
	remote := keysHomedOn(t, r, r.Nodes[1], "obs-remote", 1)[0]
	own := keysHomedOn(t, r, via, "obs-own", 1)[0]
	for _, key := range []ID{remote, own} {
		if err := r.Nodes[0].Publish([]StoredRecord{rec(key, "o", 0.9, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// A lookup, then the remembered arc, then the node's own arc.
	for _, key := range []ID{remote, remote, own} {
		if _, err := via.Retrieve(obs.SpanContext{}, key); err != nil {
			t.Fatal(err)
		}
	}
	for _, how := range []string{viaLookup, viaMemo, viaOwn} {
		if got := reg.Counter("dht_retrieve_root_total", "via", how).Load(); got != 1 {
			t.Errorf("dht_retrieve_root_total{via=%q} = %d, want 1", how, got)
		}
	}
	for _, n := range r.Nodes {
		n.Stabilize()
	}
	if got := reg.Counter("dht_stabilize_rounds_total").Load(); got != 5 {
		t.Errorf("stabilize rounds = %d, want 5", got)
	}
	wd := reg.Histogram("dht_replica_walk_depth", []float64{1, 2, 3, 4, 6, 8, 12, 16})
	if wd.Count() == 0 {
		t.Error("replica walk depth never observed")
	}
	if q := wd.Quantile(0.5); q > 16 {
		t.Errorf("median walk depth %v out of range", q)
	}
}
