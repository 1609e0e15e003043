package walk

import (
	"errors"
	"reflect"
	"testing"

	"mdrep/internal/dht"
	"mdrep/internal/fault"
	"mdrep/internal/obs"
	"mdrep/internal/sparse"
	"mdrep/internal/wire"
)

// ringSource publishes tm's rows into a fresh in-memory ring and returns
// a DHTSource reading them back through a non-publishing node.
func ringSource(t testing.TB, tm *sparse.CSR, epoch uint64) *DHTSource {
	t.Helper()
	ring, err := dht.NewRing(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := PublishRows(ring.Nodes[0], tm, epoch); err != nil {
		t.Fatal(err)
	}
	src, err := NewDHTSource(ring.Nodes[3], tm.N(), 0, epoch)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// The headline property: an estimate through the DHT is byte-identical
// to the LocalSource twin — the decentralized path changes where rows
// come from, never what they contain.
func TestDHTSourceMatchesLocalTwin(t *testing.T) {
	tm, err := RandomTM(64, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Walks: 2000, Depth: 3, Seed: 5}
	local, err := NewLocalSource(tm)
	if err != nil {
		t.Fatal(err)
	}
	localEst, err := New(local, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := localEst.Estimate(2)
	if err != nil {
		t.Fatal(err)
	}
	dhtEst, err := New(ringSource(t, tm, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dhtEst.Estimate(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DHT estimate diverged from local twin:\n got %v\nwant %v", got, want)
	}
}

// Dangling users are published as explicitly empty records, so fetching
// one succeeds with an empty row instead of "not found".
func TestDHTSourceServesEmptyRows(t *testing.T) {
	tm := sparse.FreezeNormalized(3, []map[int]float64{{1: 1}, nil, {0: 1}})
	src := ringSource(t, tm, 4)
	cols, vals, err := src.Row(obs.SpanContext{}, 1)
	if err != nil {
		t.Fatalf("empty row fetch: %v", err)
	}
	if len(cols) != 0 || len(vals) != 0 {
		t.Fatalf("row 1 = (%v, %v), want empty", cols, vals)
	}
}

// keyLog records the keys a DHTSource retrieves through a ring node.
type keyLog struct {
	node *dht.Node
	keys []dht.ID
}

func (f *keyLog) Retrieve(sc obs.SpanContext, key dht.ID) ([]dht.StoredRecord, error) {
	f.keys = append(f.keys, key)
	return f.node.Retrieve(sc, key)
}

// Once the fetching node has met every row's root, an estimate costs
// one RPC for each distinct row homed on another node, and none for a
// row in the fetching node's own arc.
func TestDHTSourceWarmRingOneRPCPerRemoteRow(t *testing.T) {
	tm, err := RandomTM(64, 21)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := dht.NewRing(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := PublishRows(ring.Nodes[0], tm, 1); err != nil {
		t.Fatal(err)
	}
	via := ring.Nodes[3]
	log := &keyLog{node: via}
	src, err := NewDHTSource(log, tm.N(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < tm.N(); u++ {
		if _, _, err := src.Row(obs.SpanContext{}, u); err != nil {
			t.Fatal(err)
		}
	}
	src.SetEpoch(1)
	log.keys = nil
	est, err := New(src, Config{Walks: 2000, Depth: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ring.Net.ResetMessages()
	if _, err := est.Estimate(2); err != nil {
		t.Fatal(err)
	}
	pred, ok := via.PredecessorRef()
	if !ok {
		t.Fatal("fetching node has no predecessor")
	}
	remote := 0
	for _, key := range log.keys {
		if !dht.Between(key, pred.ID, via.Self().ID) {
			remote++
		}
	}
	if remote == 0 || remote == len(log.keys) {
		t.Fatalf("%d of %d rows remote; the fixture should mix both", remote, len(log.keys))
	}
	if got := ring.Net.Messages(); got != uint64(remote) {
		t.Fatalf("estimate over %d rows (%d remote) cost %d RPCs, want %d", len(log.keys), remote, got, remote)
	}
}

// stubFetcher counts retrieves and serves canned responses per key.
type stubFetcher struct {
	calls int
	recs  map[dht.ID][]dht.StoredRecord
	err   error
}

func (f *stubFetcher) Retrieve(_ obs.SpanContext, key dht.ID) ([]dht.StoredRecord, error) {
	f.calls++
	if f.err != nil {
		return nil, f.err
	}
	return f.recs[key], nil
}

func rowRecords(t *testing.T, tm *sparse.CSR, epoch uint64) map[dht.ID][]dht.StoredRecord {
	t.Helper()
	recs := make(map[dht.ID][]dht.StoredRecord, tm.N())
	for u := 0; u < tm.N(); u++ {
		cols, vals := tm.Row(u)
		rec, err := RowRecord(&wire.TMRow{User: int32(u), N: int32(tm.N()), Epoch: epoch, Cols: cols, Vals: vals})
		if err != nil {
			t.Fatal(err)
		}
		recs[rec.Key] = append(recs[rec.Key], rec)
	}
	return recs
}

func TestDHTSourceCachesAndEvicts(t *testing.T) {
	tm := sparse.FreezeNormalized(4, []map[int]float64{{1: 1}, {2: 1}, {3: 1}, {0: 1}})
	fetcher := &stubFetcher{recs: rowRecords(t, tm, 1)}
	src, err := NewDHTSource(fetcher, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustRow := func(u int) {
		t.Helper()
		if _, _, err := src.Row(obs.SpanContext{}, u); err != nil {
			t.Fatalf("row %d: %v", u, err)
		}
	}
	mustRow(0)
	mustRow(0)
	mustRow(0)
	if fetcher.calls != 1 {
		t.Fatalf("fetches = %d, want 1 (repeat hits served from cache)", fetcher.calls)
	}
	mustRow(1) // cache now {1, 0}
	mustRow(2) // evicts 0 → {2, 1}
	if fetcher.calls != 3 {
		t.Fatalf("fetches = %d, want 3", fetcher.calls)
	}
	mustRow(1) // still cached
	if fetcher.calls != 3 {
		t.Fatalf("fetches = %d, want 3 (row 1 must still be cached)", fetcher.calls)
	}
	mustRow(0) // was evicted → refetch
	if fetcher.calls != 4 {
		t.Fatalf("fetches = %d, want 4 (row 0 was evicted)", fetcher.calls)
	}
}

func TestDHTSourceSetEpochDropsCache(t *testing.T) {
	tm := sparse.FreezeNormalized(2, []map[int]float64{{1: 1}, {0: 1}})
	fetcher := &stubFetcher{recs: rowRecords(t, tm, 1)}
	src, err := NewDHTSource(fetcher, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.Row(obs.SpanContext{}, 0); err != nil {
		t.Fatal(err)
	}
	// The snapshot moves on: epoch 2 is republished over epoch 1.
	fetcher.recs = rowRecords(t, tm, 2)
	src.SetEpoch(2)
	if _, _, err := src.Row(obs.SpanContext{}, 0); err != nil {
		t.Fatal(err)
	}
	if fetcher.calls != 2 {
		t.Fatalf("fetches = %d, want 2 (epoch change must invalidate the cache)", fetcher.calls)
	}
}

// The fault taxonomy: absence and staleness are retryable (republication
// repairs them); corruption and shape mismatches are terminal.
func TestDHTSourceFaultTaxonomy(t *testing.T) {
	tm := sparse.FreezeNormalized(2, []map[int]float64{{1: 1}, {0: 1}})
	goodRecs := rowRecords(t, tm, 1)

	t.Run("missing row is retryable", func(t *testing.T) {
		src, err := NewDHTSource(&stubFetcher{}, 2, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = src.Row(obs.SpanContext{}, 0)
		if !errors.Is(err, fault.ErrUnreachable) || !fault.Retryable(err) {
			t.Fatalf("err = %v, want retryable fault.ErrUnreachable", err)
		}
	})
	t.Run("stale epoch is retryable", func(t *testing.T) {
		src, err := NewDHTSource(&stubFetcher{recs: goodRecs}, 2, 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = src.Row(obs.SpanContext{}, 0)
		if !errors.Is(err, fault.ErrUnreachable) || !fault.Retryable(err) {
			t.Fatalf("err = %v, want retryable fault.ErrUnreachable", err)
		}
	})
	t.Run("transport error keeps its class", func(t *testing.T) {
		cause := fault.Timeout(errors.New("ring unresponsive"))
		src, err := NewDHTSource(&stubFetcher{err: cause}, 2, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = src.Row(obs.SpanContext{}, 0)
		if !errors.Is(err, cause) || !fault.Retryable(err) {
			t.Fatalf("err = %v, want the wrapped retryable transport error", err)
		}
	})
	t.Run("corrupt payload is terminal", func(t *testing.T) {
		rec := dht.StoredRecord{Key: RowKey(0)}
		rec.Info.OwnerID = RowOwner
		rec.Info.FileID = "tmrow:!!!not-base64!!!"
		src, err := NewDHTSource(&stubFetcher{recs: map[dht.ID][]dht.StoredRecord{rec.Key: {rec}}}, 2, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := src.Row(obs.SpanContext{}, 0); !fault.IsTerminal(err) {
			t.Fatalf("err = %v, want fault.Terminal", err)
		}
	})
	t.Run("foreign record under key is missing row", func(t *testing.T) {
		rec := dht.StoredRecord{Key: RowKey(0)}
		rec.Info.OwnerID = "some-peer"
		rec.Info.FileID = "ordinary-file"
		src, err := NewDHTSource(&stubFetcher{recs: map[dht.ID][]dht.StoredRecord{rec.Key: {rec}}}, 2, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := src.Row(obs.SpanContext{}, 0); !errors.Is(err, fault.ErrUnreachable) {
			t.Fatalf("err = %v, want fault.ErrUnreachable (foreign owners are not rows)", err)
		}
	})
	t.Run("wrong shape is terminal", func(t *testing.T) {
		rec, err := RowRecord(&wire.TMRow{User: 1, N: 2, Epoch: 1, Cols: []int32{0}, Vals: []float64{1}})
		if err != nil {
			t.Fatal(err)
		}
		rec.Key = RowKey(0) // row 1's record parked under row 0's key
		src, err := NewDHTSource(&stubFetcher{recs: map[dht.ID][]dht.StoredRecord{rec.Key: {rec}}}, 2, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := src.Row(obs.SpanContext{}, 0); !fault.IsTerminal(err) {
			t.Fatalf("err = %v, want fault.Terminal", err)
		}
	})
	t.Run("out of range user is terminal", func(t *testing.T) {
		src, err := NewDHTSource(&stubFetcher{}, 2, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := src.Row(obs.SpanContext{}, 2); !fault.IsTerminal(err) {
			t.Fatalf("err = %v, want fault.Terminal", err)
		}
	})
}

// Newer epochs supersede: when replicas hold both, the source must pick
// the record with the highest timestamp, not whichever arrives first.
func TestDHTSourcePrefersNewestRecord(t *testing.T) {
	old, err := RowRecord(&wire.TMRow{User: 0, N: 2, Epoch: 1, Cols: []int32{1}, Vals: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := RowRecord(&wire.TMRow{User: 0, N: 2, Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	fetcher := &stubFetcher{recs: map[dht.ID][]dht.StoredRecord{RowKey(0): {old, cur}}}
	src, err := NewDHTSource(fetcher, 2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	cols, _, err := src.Row(obs.SpanContext{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 0 {
		t.Fatalf("row 0 = %v, want the empty epoch-2 row", cols)
	}
}

func TestNewDHTSourceValidation(t *testing.T) {
	if _, err := NewDHTSource(nil, 2, 0, 1); !fault.IsTerminal(err) {
		t.Fatalf("nil fetcher: err = %v, want fault.Terminal", err)
	}
	if _, err := NewDHTSource(&stubFetcher{}, 0, 0, 1); !fault.IsTerminal(err) {
		t.Fatalf("n=0: err = %v, want fault.Terminal", err)
	}
	if err := PublishRows(nil, nil, 1); !fault.IsTerminal(err) {
		t.Fatalf("nil publisher: err = %v, want fault.Terminal", err)
	}
}
