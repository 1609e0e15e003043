package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"mdrep/internal/dht"
	"mdrep/internal/obs"
	"mdrep/internal/sim"
	"mdrep/internal/sparse"
	"mdrep/internal/walk"
)

// walk-dht: each op is one Monte-Carlo estimate of an RM row over TM rows
// held in the DHT (Stannat & Pouwelse, arXiv:1903.05900). The source is
// repinned before every op, so each estimate starts with a cold row
// cache; the cache still serves repeat visits within the estimate.
//
// The TM is one fixed matrix, not one per seed: walk.RandomTM's
// heavy-tailed out-degrees make the mean estimate cost of a matrix vary
// by ±12% between matrix seeds (17.3 to 21.9 distinct rows per estimate
// over seeds 1–10), which would swamp any change being measured. The
// seed picks the ring, the order in which every user is used as a
// source, and each estimate's walk seed.
const (
	walkNodes  = 8
	walkUsers  = 2000
	walkWalks  = 4000
	walkDepth  = 3
	walkEpoch  = 1
	walkHome   = 0
	walkTMSeed = 1
)

type walkBench struct {
	e     *env
	ring  *ring
	tm    *sparse.CSR
	src   *walk.DHTSource
	rows  walk.RowSource // src, or a counting wrapper around it when traced
	order []int          // op i estimates from source order[i mod n]

	// op state
	source  int
	seed    uint64
	est     map[int]float64
	sources []int
	seeds   []uint64
	digests []uint64
}

func setupWalk(e *env) (instance, error) {
	tm, err := walk.RandomTM(walkUsers, walkTMSeed)
	if err != nil {
		return nil, err
	}
	r, err := startRing(ringAddrs(e.seed, walkNodes), func() *dht.Storage { return dht.NewStorage(0, nil) }, ringClient(e.tr))
	if err != nil {
		return nil, err
	}
	b := &walkBench{e: e, ring: r, tm: tm, order: sim.NewRNG(mix(e.seed, "walk/order", 0)).Perm(walkUsers)}
	// Each user's row is published from a node chosen round-robin, as if
	// every peer published its own row: 2,000 Publish calls with
	// replication.
	if err := walk.PublishRows(&spreadPublisher{nodes: r.nodes, tr: e.tr}, tm, walkEpoch); err != nil {
		r.close()
		return nil, err
	}
	var fetcher walk.Fetcher = r.nodes[walkHome]
	if e.tr != nil {
		fetcher = tracedFetcher{inner: r.nodes[walkHome], tr: e.tr}
	}
	src, err := walk.NewDHTSource(fetcher, walkUsers, 0, walkEpoch)
	if err != nil {
		r.close()
		return nil, err
	}
	b.src, b.rows = src, src
	if e.tr != nil {
		b.rows = countedRows{inner: src, tr: e.tr}
	}
	return b, nil
}

// spreadPublisher publishes each call from the next node in turn.
type spreadPublisher struct {
	nodes []*dht.Node
	next  int
	tr    *tracer
}

func (p *spreadPublisher) Publish(recs []dht.StoredRecord) error {
	n := p.nodes[p.next%len(p.nodes)]
	p.next++
	_, err := timed(p.tr, kDHTPublish, func() (struct{}, error) { return struct{}{}, n.Publish(recs) })
	return err
}

func (b *walkBench) prepare(i int) {
	b.source = b.order[i%walkUsers]
	b.seed = mix(b.e.seed, "walk/op", uint64(i))
}

func (b *walkBench) run() error {
	est, err := timed(b.e.tr, kWalkEstimate, func() (map[int]float64, error) {
		b.src.SetEpoch(walkEpoch)
		w, err := walk.New(b.rows, walk.Config{Walks: walkWalks, Depth: walkDepth, Seed: b.seed})
		if err != nil {
			return nil, err
		}
		return w.Estimate(b.source)
	})
	b.est = est
	return err
}

func (b *walkBench) note(int) {
	b.sources = append(b.sources, b.source)
	b.seeds = append(b.seeds, b.seed)
	b.digests = append(b.digests, digest(b.est))
}

// check replays every op over walk.NewLocalSource on the same TM; each
// estimate must hash the same as the DHT-sourced one.
func (b *walkBench) check() (int, string, error) {
	local, err := walk.NewLocalSource(b.tm)
	if err != nil {
		return 0, "", err
	}
	failed := 0
	for k, src := range b.sources {
		w, err := walk.New(local, walk.Config{Walks: walkWalks, Depth: walkDepth, Seed: b.seeds[k]})
		if err != nil {
			return 0, "", err
		}
		want, err := w.Estimate(src)
		if err != nil {
			return 0, "", fmt.Errorf("local replay of op %d: %w", k, err)
		}
		if digest(want) != b.digests[k] {
			failed++
		}
	}
	n := len(b.sources)
	return failed, fmt.Sprintf("estimate equal to the LocalSource replay on %d/%d ops", n-failed, n), nil
}

// digest hashes an estimate's entries in ascending column order, so ops
// keep 8 bytes each instead of the whole row.
func digest(est map[int]float64) uint64 {
	cols := make([]int, 0, len(est))
	for c := range est {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	h := fnv.New64a()
	var buf [16]byte
	for _, c := range cols {
		binary.LittleEndian.PutUint64(buf[:8], uint64(c))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(est[c]))
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}

func (b *walkBench) counters() map[string]float64 {
	return map[string]float64{ctrLookupHops: b.ring.lookupHops()}
}

func (b *walkBench) close() error {
	b.ring.close()
	return nil
}

// tracedFetcher times the DHT source's cache-miss row fetches.
type tracedFetcher struct {
	inner walk.Fetcher
	tr    *tracer
}

func (f tracedFetcher) Retrieve(sc obs.SpanContext, key dht.ID) ([]dht.StoredRecord, error) {
	return timed(f.tr, kWalkFetch, func() ([]dht.StoredRecord, error) { return f.inner.Retrieve(sc, key) })
}

// countedRows counts the estimator's row reads. It records no span: an
// estimate makes about 12,000 of them, nearly all cache hits.
type countedRows struct {
	inner walk.RowSource
	tr    *tracer
}

func (r countedRows) N() int { return r.inner.N() }

func (r countedRows) Row(sc obs.SpanContext, user int) ([]int32, []float64, error) {
	if r.tr.enabled() {
		r.tr.count(cRowCalls, 1)
	}
	return r.inner.Row(sc, user)
}
