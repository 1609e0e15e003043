package dht

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mdrep/internal/fault"
	"mdrep/internal/flight"
	"mdrep/internal/obs"
)

// withFlightTracing installs a recorder plus sample-everything tracing
// on a deterministic clock for the test's duration.
func withFlightTracing(t *testing.T, seed uint64) *flight.Recorder {
	t.Helper()
	rec := flight.NewRecorder(256, 8)
	flight.Install(rec)
	tick := time.Unix(0, 0)
	obs.EnableTracing(seed, func() time.Time {
		tick = tick.Add(time.Millisecond)
		return tick
	}, 1)
	t.Cleanup(func() {
		obs.DisableTracing()
		flight.Install(nil)
	})
	return rec
}

// TestRetryExhaustionTriggersDump: a retry loop that runs out of
// attempts is exactly the moment the black box must be written — the
// ring then holds every attempt span of the failed operation.
func TestRetryExhaustionTriggersDump(t *testing.T) {
	rec := withFlightTracing(t, 3)
	inner := &flakyClient{failures: 99, err: fault.Unreachable(errors.New("down"))}
	rc := NewRetryClient(inner, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}, 1)
	rc.SetSleep(func(time.Duration) {})
	if err := rc.Notify(obs.SpanContext{}, "a", NodeRef{}); err == nil {
		t.Fatal("exhausted retries succeeded")
	}
	d, ok := rec.LastDump()
	if !ok {
		t.Fatal("retry exhaustion did not trigger a flight dump")
	}
	if want := dumpReasonExhausted + "notify"; d.Reason != want {
		t.Errorf("dump reason = %q, want %q", d.Reason, want)
	}
	attempts := 0
	for _, r := range d.Records {
		if r.Name == spanAttempt {
			attempts++
		}
	}
	if attempts != 3 {
		t.Errorf("dump holds %d attempt spans, want 3", attempts)
	}
}

// TestRetrySuccessDoesNotDump: a retry that eventually lands must not
// spend a black box — dumps are for evidence of failure, not noise.
func TestRetrySuccessDoesNotDump(t *testing.T) {
	rec := withFlightTracing(t, 4)
	inner := &flakyClient{failures: 2, err: fault.Unreachable(errors.New("down"))}
	rc := NewRetryClient(inner, DefaultRetryPolicy(), 1)
	rc.SetSleep(func(time.Duration) {})
	if err := rc.Notify(obs.SpanContext{}, "a", NodeRef{}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Triggered(); got != 0 {
		t.Errorf("successful retry triggered %d dumps", got)
	}
}

// TestWireTracePropagation: a traced Retrieve through the in-memory
// transport must land the server-side handler spans on the caller's
// trace — one stitched tree, not a forest — and each dht.retrieve span
// says how it found the key's root.
func TestWireTracePropagation(t *testing.T) {
	fr := withFlightTracing(t, 5)
	r, err := NewRing(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	via := r.Nodes[0]
	remote := keysHomedOn(t, r, r.Nodes[1], "traced-remote", 1)[0]
	own := keysHomedOn(t, r, via, "traced-own", 1)[0]
	for _, key := range []ID{remote, own} {
		if err := via.Publish([]StoredRecord{rec(key, "o", 0.9, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	root := obs.StartRoot("walk.row_fetch")
	// A lookup, then the remembered arc, then the node's own arc.
	for _, key := range []ID{remote, remote, own} {
		if _, err := via.Retrieve(root.Context(), key); err != nil {
			t.Fatal(err)
		}
	}
	root.End()
	trace := root.Context().Trace
	var recs []flight.Record
	for _, rr := range fr.Snapshot() {
		if rr.Trace == trace {
			recs = append(recs, rr)
		}
	}
	rendered := flight.RenderTraces(recs)
	if len(recs) < 3 {
		t.Fatalf("stitched trace holds %d records, want root + retrieve + rpc hops:\n%s", len(recs), rendered)
	}
	for _, want := range []string{"walk.row_fetch", "  " + spanRetrieve, spanRPCFindSuccessor,
		attrVia + "=" + viaLookup, attrVia + "=" + viaMemo, attrVia + "=" + viaOwn} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered trace missing %q:\n%s", want, rendered)
		}
	}
}
