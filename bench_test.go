// Benchmarks regenerating the paper's evaluation (Figure 1) and the
// extension experiments E1–E7 of DESIGN.md, plus micro-benchmarks of the
// kernels they stand on. Run with:
//
//	go test -bench=. -benchmem
//
// Scales are the "small" experiment scales so a full sweep completes in
// minutes; EXPERIMENTS.md records full-scale numbers from cmd/mdrep-sim.
package mdrep_test

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"mdrep"
	"mdrep/internal/core"
	"mdrep/internal/dht"
	"mdrep/internal/eigentrust"
	"mdrep/internal/eval"
	"mdrep/internal/experiments"
	"mdrep/internal/identity"
	"mdrep/internal/journal"
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
	"mdrep/internal/p2psim"
	"mdrep/internal/peer"
	"mdrep/internal/sim"
	"mdrep/internal/sparse"
	"mdrep/internal/trace"
	"mdrep/internal/walk"
	"mdrep/internal/wire"
)

// --- Figure 1 -------------------------------------------------------------

// BenchmarkFigure1Coverage regenerates the whole of Figure 1 (trace
// generation plus five coverage replays) per iteration.
func BenchmarkFigure1Coverage(b *testing.B) {
	cfg := experiments.DefaultFig1Config(experiments.ScaleSmall)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Steady[len(res.Steady)-1] < 0.8 {
			b.Fatalf("implicit coverage %v below the paper's band", res.Steady[len(res.Steady)-1])
		}
	}
}

// --- Extension experiments E1–E7 ------------------------------------------

func benchP2PConfig(scheme p2psim.Scheme) p2psim.Config {
	cfg := p2psim.DefaultConfig()
	cfg.Peers = 150
	cfg.Titles = 200
	cfg.Requests = 5000
	cfg.Scheme = scheme
	return cfg
}

// BenchmarkE1FakeFiles runs the pollution scenario once per scheme per
// iteration and reports the resulting fake-download ratios.
func BenchmarkE1FakeFiles(b *testing.B) {
	for _, scheme := range []p2psim.Scheme{
		p2psim.SchemeMDRep, p2psim.SchemeLIP, p2psim.SchemeNaiveVoting, p2psim.SchemeNone,
	} {
		b.Run(scheme.String(), func(b *testing.B) {
			var lastRatio float64
			for i := 0; i < b.N; i++ {
				res, err := p2psim.Run(benchP2PConfig(scheme))
				if err != nil {
					b.Fatal(err)
				}
				lastRatio = res.FakeFraction()
			}
			b.ReportMetric(lastRatio, "fake-ratio")
		})
	}
}

// BenchmarkE2Incentive runs the free-riding scenario and reports the
// bandwidth advantage sharers enjoy over free-riders.
func BenchmarkE2Incentive(b *testing.B) {
	cfg := p2psim.IncentiveConfig()
	cfg.Peers = 150
	cfg.Titles = 200
	cfg.Requests = 5000
	var advantage float64
	for i := 0; i < b.N; i++ {
		res, err := p2psim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		free := res.BandwidthByClass[p2psim.FreeRider].Mean()
		if free > 0 {
			advantage = res.BandwidthByClass[p2psim.Honest].Mean() / free
		}
	}
	b.ReportMetric(advantage, "bw-advantage")
}

// BenchmarkE3Collusion runs the clique experiment and reports EigenTrust's
// amplification next to MDRep's suppression.
func BenchmarkE3Collusion(b *testing.B) {
	cfg := experiments.DefaultE3Config(experiments.ScaleSmall)
	var et, md float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E3Collusion(cfg)
		if err != nil {
			b.Fatal(err)
		}
		et = res.EigenTrustShare / res.ServiceShare
		md = res.MDRepShare / res.ServiceShare
	}
	b.ReportMetric(et, "eigentrust-amp")
	b.ReportMetric(md, "mdrep-amp")
}

// BenchmarkE4Ablation measures the per-dimension coverage ablation.
func BenchmarkE4Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E4Ablation(experiments.ScaleSmall); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Steps measures the multi-trust depth sweep.
func BenchmarkE5Steps(b *testing.B) {
	cfg := experiments.DefaultE5Config(experiments.ScaleSmall)
	var oneStep, deep float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E5Steps(cfg)
		if err != nil {
			b.Fatal(err)
		}
		oneStep = res.Coverage[0]
		deep = res.Coverage[len(res.Coverage)-1]
	}
	b.ReportMetric(oneStep, "coverage-1step")
	b.ReportMetric(deep, "coverage-6step")
}

// BenchmarkE6DHT measures the DHT sweep (lookup hops, publish overhead,
// churn resilience).
func BenchmarkE6DHT(b *testing.B) {
	cfg := experiments.DefaultE6Config(experiments.ScaleSmall)
	var hops float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E6DHT(cfg)
		if err != nil {
			b.Fatal(err)
		}
		hops = res.Rows[len(res.Rows)-1].MeanLookupHops
	}
	b.ReportMetric(hops, "hops-at-64")
}

// --- Kernels ---------------------------------------------------------------

// loadedTrace generates the synthetic download trace loadSharded
// replays: peers users, 4 files per user, downloads transfers.
func loadedTrace(b *testing.B, peers, downloads int) *trace.Trace {
	b.Helper()
	tc := trace.DefaultGenConfig()
	tc.Peers = peers
	tc.Files = peers * 4
	tc.Downloads = downloads
	tr, err := trace.Generate(tc)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// loadSharded replays tr into a fresh one-shard engine, the engine
// every caller runs: each transfer is a download plus a 0.9 retention
// evaluation by both ends.
func loadSharded(b *testing.B, peers int, tr *trace.Trace) *core.Sharded {
	b.Helper()
	engine, err := core.NewSharded(peers, 1, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range tr.Records {
		f := eval.FileID(trace.FileHash(rec.File))
		if err := engine.RecordDownload(rec.Downloader, rec.Uploader, f, rec.Size, rec.Time); err != nil {
			b.Fatal(err)
		}
		if err := engine.SetImplicit(rec.Downloader, f, 0.9, rec.Time); err != nil {
			b.Fatal(err)
		}
		if err := engine.SetImplicit(rec.Uploader, f, 0.9, rec.Time); err != nil {
			b.Fatal(err)
		}
	}
	return engine
}

// benchFirstBuild times a one-shard engine's first build of TM at now.
// Each op restores st into a fresh engine off the clock, so every row
// is computed from scratch, none taken from a cache or patched.
func benchFirstBuild(b *testing.B, st *core.ShardState, now time.Duration) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		engine, err := core.NewSharded(st.N, 1, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := engine.RestoreShard(0, st); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := engine.TM(now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrustMatrixBuild measures building TM (FM + DM + UM) from a
// loaded engine — the per-epoch cost of the system — in three regimes,
// all on a one-shard engine:
//   - cold: the first build after a restore, every row computed from
//     scratch;
//   - incremental: a build after one changed vote, which recomputes the
//     rows the vote dirtied and patches TM in them;
//   - cached: nothing changed since the last build, so TM returns the
//     cached matrix.
func BenchmarkTrustMatrixBuild(b *testing.B) {
	const peers, downloads = 300, 20000
	now := 30 * 24 * time.Hour
	b.Run("cold", func(b *testing.B) {
		st, err := loadSharded(b, peers, loadedTrace(b, peers, downloads)).ExportShardState(0)
		if err != nil {
			b.Fatal(err)
		}
		benchFirstBuild(b, st, now)
	})
	b.Run("incremental", func(b *testing.B) {
		tr := loadedTrace(b, peers, downloads)
		engine := loadSharded(b, peers, tr)
		if _, err := engine.TM(now); err != nil {
			b.Fatal(err)
		}
		// Every op flips the same vote, so each dirties the same rows and
		// costs the same whatever b.N is: the downloader of the trace's
		// middle transfer voting on that file.
		mid := tr.Records[len(tr.Records)/2]
		f := eval.FileID(trace.FileHash(mid.File))
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := engine.Vote(mid.Downloader, f, float64(i%2), now); err != nil {
				b.Fatal(err)
			}
			if _, err := engine.TM(now); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		engine := loadSharded(b, peers, loadedTrace(b, peers, downloads))
		if _, err := engine.TM(now); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.TM(now); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReputationQuery measures one peer's multi-trust row against a
// prebuilt TM — the per-request cost of the system.
func BenchmarkReputationQuery(b *testing.B) {
	engine := loadSharded(b, 300, loadedTrace(b, 300, 20000))
	now := 30 * 24 * time.Hour
	tm, err := engine.TM(now)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.ReputationsFromTM(tm, i%300); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileJudgement measures Eq. (9) over a 50-evaluator opinion set.
func BenchmarkFileJudgement(b *testing.B) {
	engine := loadSharded(b, 300, loadedTrace(b, 300, 20000))
	now := 30 * 24 * time.Hour
	tm, err := engine.TM(now)
	if err != nil {
		b.Fatal(err)
	}
	owners := make([]core.OwnerEvaluation, 50)
	for i := range owners {
		owners[i] = core.OwnerEvaluation{Owner: i * 3, Value: float64(i%10) / 10}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.JudgeFileFromTM(tm, i%300, owners); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseMatMul measures TM·TM on a Maze-sized sparse matrix:
// the CSR product that CSR.Pow and multitier.NewClassifier run.
func BenchmarkSparseMatMul(b *testing.B) {
	m := randomStochastic(1, 1000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Mul(m); err != nil {
			b.Fatal(err)
		}
	}
}

// randomStochastic builds an n×n row-stochastic matrix at Maze density
// (~20 nnz/row).
func randomStochastic(seed uint64, n int) *sparse.CSR {
	rng := sim.NewRNG(seed)
	rows := make([]map[int]float64, n)
	for i := range rows {
		rows[i] = make(map[int]float64, 20)
		for k := 0; k < 20; k++ {
			rows[i][rng.Intn(n)] = rng.Float64()
		}
	}
	return sparse.FreezeNormalized(n, rows)
}

// BenchmarkRMPowParallel measures RM = TM^k (Eq. 8) on the CSR
// worker-pool Pow. k = 2 keeps the power sparse (~400 nnz/row) at
// n = 10k; higher powers densify.
func BenchmarkRMPowParallel(b *testing.B) {
	const steps = 2
	for _, n := range []int{1000, 10000} {
		c := randomStochastic(uint64(n), n)
		b.Run(fmt.Sprintf("csr/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Pow(steps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildTMIncremental compares the per-event cost of refreshing
// TM on a one-shard engine: the incremental path re-derives only the
// rows dirtied by one new evaluation, the full path is the first build
// after a restore of the same evidence, recomputing every row.
func BenchmarkBuildTMIncremental(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		sharded, err := core.NewSharded(n, 1, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		var now time.Duration
		events := journalWorkload(n, n*20)
		for _, ev := range events {
			if ev.Time > now {
				now = ev.Time
			}
		}
		if err := sharded.ApplyBatch(events); err != nil {
			b.Fatal(err)
		}
		st, err := sharded.ExportShardState(0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sharded.TM(now); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("full/n=%d", n), func(b *testing.B) {
			benchFirstBuild(b, st, now)
		})
		b.Run(fmt.Sprintf("incremental/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := core.Event{
					Kind:  core.EventSetImplicit,
					I:     i % n,
					File:  eval.FileID(fmt.Sprintf("f-%d", i%n)),
					Value: 0.5,
					Time:  now,
				}
				if err := sharded.ApplyEvent(ev); err != nil {
					b.Fatal(err)
				}
				if _, err := sharded.TM(now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEigenTrust measures the baseline's power iteration at n=1000.
func BenchmarkEigenTrust(b *testing.B) {
	m := randomStochastic(2, 1000)
	cfg := eigentrust.DefaultConfig([]int{0, 1, 2})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eigentrust.Compute(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDHTLookup measures a single routed lookup on a 64-node ring.
func BenchmarkDHTLookup(b *testing.B) {
	ring, err := dht.NewRing(64, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := dht.HashKey(fmt.Sprintf("bench-%d", i))
		if _, err := ring.Nodes[i%64].Lookup(obs.SpanContext{}, key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDHTRetrieve times one Retrieve of a present key on an
// in-memory 8-node ring, from a node the key is not homed on, and
// reports the RPCs it sent. known_root is the warm path: the node has
// met every key's root, so each retrieve goes straight to it. lookup is
// the full path a cold node pays for the same keys: Lookup, then the
// root's retrieve.
func BenchmarkDHTRetrieve(b *testing.B) {
	ring, err := dht.NewRing(8, nil)
	if err != nil {
		b.Fatal(err)
	}
	via := ring.Nodes[0]
	pred, ok := via.PredecessorRef()
	if !ok {
		b.Fatal("ring did not converge")
	}
	var keys []dht.ID
	for i := 0; len(keys) < 256; i++ {
		key := dht.HashKey(fmt.Sprintf("bench-retrieve-%d", i))
		if dht.Between(key, pred.ID, via.Self().ID) {
			continue // homed on via: no RPC either way
		}
		rec := dht.StoredRecord{Key: key, Info: eval.Info{FileID: "f", OwnerID: "bench-owner", Evaluation: 0.9, Timestamp: 1}}
		if err := ring.Nodes[1].Publish([]dht.StoredRecord{rec}); err != nil {
			b.Fatal(err)
		}
		keys = append(keys, key)
	}
	run := func(b *testing.B, retrieve func(dht.ID) ([]dht.StoredRecord, error)) {
		ring.Net.ResetMessages()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recs, err := retrieve(keys[i%len(keys)])
			if err != nil || len(recs) != 1 {
				b.Fatalf("retrieve: %d records, %v", len(recs), err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(ring.Net.Messages())/float64(b.N), "rpcs/op")
	}
	b.Run("known_root", func(b *testing.B) {
		for _, key := range keys {
			if _, err := via.Retrieve(obs.SpanContext{}, key); err != nil {
				b.Fatal(err)
			}
		}
		run(b, func(key dht.ID) ([]dht.StoredRecord, error) { return via.Retrieve(obs.SpanContext{}, key) })
	})
	b.Run("lookup", func(b *testing.B) {
		run(b, func(key dht.ID) ([]dht.StoredRecord, error) {
			root, err := via.Lookup(obs.SpanContext{}, key)
			if err != nil {
				return nil, err
			}
			return ring.Net.Retrieve(obs.SpanContext{}, root.Addr, key)
		})
	})
}

// BenchmarkDHTPublish measures a replicated publish on a 64-node ring.
func BenchmarkDHTPublish(b *testing.B) {
	ring, err := dht.NewRing(64, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("bench-file-%d", i)
		rec := dht.StoredRecord{
			Key: dht.HashKey(name),
			Info: eval.Info{
				FileID:     eval.FileID(name),
				OwnerID:    "bench-owner",
				Evaluation: 0.9,
				Timestamp:  time.Duration(i),
			},
		}
		if err := ring.Nodes[i%64].Publish([]dht.StoredRecord{rec}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPRoundTrip measures one DHT RPC over loopback TCP: a
// TCPClient.Retrieve of one TM-row record from a single node. The row is
// the one of median length in the walk-dht matrix (n=2000, seed 1), so
// the reply is the size a random walk fetches on a typical hop.
func BenchmarkTCPRoundTrip(b *testing.B) {
	tm, err := walk.RandomTM(2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	users := make([]int, tm.N())
	for u := range users {
		users[u] = u
	}
	sort.SliceStable(users, func(x, y int) bool { return tm.RowNNZ(users[x]) < tm.RowNNZ(users[y]) })
	user := users[len(users)/2]
	cols, vals := tm.RowCopy(user)
	rec, err := walk.RowRecord(&wire.TMRow{User: int32(user), N: int32(tm.N()), Epoch: 1, Cols: cols, Vals: vals})
	if err != nil {
		b.Fatal(err)
	}
	client := dht.NewTCPClient()
	defer func() { _ = client.Close() }()
	srv, err := dht.ServeTCPNode("127.0.0.1:0", client, dht.NodeConfig{SuccessorListLen: 3, Storage: dht.NewStorage(0, nil)})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	if err := client.Store(obs.SpanContext{}, srv.Addr(), []dht.StoredRecord{rec}, false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := client.Retrieve(obs.SpanContext{}, srv.Addr(), rec.Key)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != 1 {
			b.Fatalf("retrieved %d records, want 1", len(recs))
		}
	}
}

// BenchmarkTraceGeneration measures synthesising the Figure 1 workload.
func BenchmarkTraceGeneration(b *testing.B) {
	cfg := trace.DefaultGenConfig()
	cfg.Peers = 200
	cfg.Files = 1000
	cfg.Downloads = 20000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := trace.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignVerify measures the EvaluationInfo signature round trip.
func BenchmarkSignVerify(b *testing.B) {
	id, err := identity.Generate(identity.NewDeterministicReader(1))
	if err != nil {
		b.Fatal(err)
	}
	dir := identity.NewDirectory()
	if _, err := dir.Register(id.PublicKey()); err != nil {
		b.Fatal(err)
	}
	info := eval.Info{FileID: "f", OwnerID: id.ID(), Evaluation: 0.9, Timestamp: 1}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		info.Timestamp = time.Duration(i)
		if err := info.Sign(id); err != nil {
			b.Fatal(err)
		}
		if err := info.Verify(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeerSync measures one evaluation-list exchange (§4.1 step 4)
// over the in-memory network: the owner serves its 48-entry signed list
// (one SignedEvaluations) and the syncing peer authenticates all 48
// entries with one check of the list signature.
// It is the stage that dominates a judge-tcp op in perfbench, without
// the sockets.
func BenchmarkPeerSync(b *testing.B) {
	const files = 48
	dir := identity.NewDirectory()
	ex := peer.NewExchange()
	var peers []*peer.Peer
	for seed := uint64(1); seed <= 2; seed++ {
		id, err := identity.Generate(identity.NewDeterministicReader(seed))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dir.Register(id.PublicKey()); err != nil {
			b.Fatal(err)
		}
		p, err := peer.New(id, dir, ex, peer.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		ex.Register(p)
		peers = append(peers, p)
	}
	syncer, owner := peers[0], peers[1]
	for f := 0; f < files; f++ {
		file := eval.FileID(fmt.Sprintf("file-%02d", f))
		owner.Vote(file, float64(f%10)/9)
		syncer.Vote(file, float64(f%7)/6)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n, err := syncer.SyncPeer(owner.ID())
		if err != nil {
			b.Fatal(err)
		}
		if n != files {
			b.Fatalf("synced %d entries, want %d", n, files)
		}
	}
}

// BenchmarkExchangeFetch measures one evaluation-list fetch over
// loopback TCP (§4.1 step 4): TCPExchange.FetchEvaluations of an owner's
// 48-entry signed list, list signature included, from ServeExchange over
// a pooled connection. The list is signed once before the timer starts,
// so an op is the exchange's framing, codec and socket round trip, the
// stage of a judge-tcp sync before verification. frame-B/op is the
// response bytes the fetching side reads.
func BenchmarkExchangeFetch(b *testing.B) {
	const files = 48
	id, err := identity.Generate(identity.NewDeterministicReader(1))
	if err != nil {
		b.Fatal(err)
	}
	dir := identity.NewDirectory()
	if _, err := dir.Register(id.PublicKey()); err != nil {
		b.Fatal(err)
	}
	owner, err := peer.New(id, dir, peer.NewExchange(), peer.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for f := 0; f < files; f++ {
		owner.Vote(eval.FileID(fmt.Sprintf("%016x", uint64(f)*0x9e3779b97f4a7c15)), float64(f%10)/9)
	}
	infos, err := owner.SignedEvaluations()
	if err != nil {
		b.Fatal(err)
	}
	srv, err := peer.ServeExchange("127.0.0.1:0", func() ([]eval.Info, error) { return infos, nil })
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	resolver := peer.NewStaticResolver()
	resolver.Set(owner.ID(), srv.Addr())
	client := peer.NewTCPExchange(resolver)
	defer func() { _ = client.Close() }()
	reg := metrics.NewRegistry()
	client.Instrument(peer.NewExchangeObs(reg))
	in := reg.Counter("peer_exchange_bytes_total", "dir", "in")
	b.ReportAllocs()
	b.ResetTimer()
	start := in.Load()
	for i := 0; i < b.N; i++ {
		got, err := client.FetchEvaluations(obs.SpanContext{}, owner.ID())
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != files {
			b.Fatalf("fetched %d entries, want %d", len(got), files)
		}
	}
	b.ReportMetric(float64(in.Load()-start)/float64(b.N), "frame-B/op")
}

// BenchmarkPeerTrustRow measures the daemon's one-step trust row
// (Eqs. 2–7) in judge-tcp's shape: a judge that votes on 256 files has
// synced 32 owners of 48 evaluations each, and holds a download ledger
// and ratings for some of them. judge-tcp computes this row once per
// JudgeFile.
func BenchmarkPeerTrustRow(b *testing.B) {
	const owners, files, perOwner = 32, 256, 48
	dir := identity.NewDirectory()
	ex := peer.NewExchange()
	var peers []*peer.Peer
	for seed := uint64(1); seed <= owners+1; seed++ {
		id, err := identity.Generate(identity.NewDeterministicReader(seed))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dir.Register(id.PublicKey()); err != nil {
			b.Fatal(err)
		}
		p, err := peer.New(id, dir, ex, peer.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		ex.Register(p)
		peers = append(peers, p)
	}
	judge := peers[0]
	file := func(f int) eval.FileID { return eval.FileID(fmt.Sprintf("file-%03d", f)) }
	for f := 0; f < files; f++ {
		judge.Vote(file(f), float64(f*37%101)/100)
	}
	for o, p := range peers[1:] {
		for k := 0; k < perOwner; k++ {
			f := (o*7 + k*5) % files
			p.Vote(file(f), float64((o*13+f*29)%103)/102)
		}
		if _, err := judge.SyncPeer(p.ID()); err != nil {
			b.Fatal(err)
		}
		if o%2 == 0 {
			for k := 0; k < 4; k++ {
				if err := judge.RecordDownload(p.ID(), file((o*11+k*3)%(files+16)), int64(1+o*k)<<16); err != nil {
					b.Fatal(err)
				}
			}
		}
		if o%3 == 0 {
			if err := judge.RateUser(p.ID(), float64(o%10)/9); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if row := judge.TrustRow(); len(row) != owners {
			b.Fatalf("trust row has %d entries, want %d", len(row), owners)
		}
	}
}

// --- Journal ---------------------------------------------------------------

// journalWorkload returns a deterministic stream of valid engine events
// with the mix a live peer journals: retention re-observations dominate
// (they overwrite store records, so state stays bounded while the log
// grows), with downloads and votes sprinkled in.
func journalWorkload(peers, count int) []core.Event {
	rng := sim.NewRNG(7)
	events := make([]core.Event, 0, count)
	for i := 0; len(events) < count; i++ {
		now := time.Duration(i) * time.Second
		p := rng.Intn(peers)
		f := eval.FileID(fmt.Sprintf("f-%d", rng.Intn(peers)))
		events = append(events, core.Event{Kind: core.EventSetImplicit, I: p, File: f, Value: rng.Float64(), Time: now})
		if i%8 == 0 {
			to := rng.Intn(peers - 1)
			if to >= p {
				to++
			}
			events = append(events, core.Event{Kind: core.EventDownload, I: p, J: to, File: f, Size: 1 << 20, Time: now})
		}
		if i%5 == 0 {
			events = append(events, core.Event{Kind: core.EventVote, I: p, File: f, Value: rng.Float64(), Time: now})
		}
	}
	return events[:count]
}

// BenchmarkJournalAppend measures the durable write path — apply + encode +
// WAL append through a one-shard journal — at two fsync batch sizes. The
// gap between sync=1 and sync=64 is the price of per-event durability.
func BenchmarkJournalAppend(b *testing.B) {
	const peers = 100
	for _, syncEvery := range []int{1, 64} {
		b.Run(fmt.Sprintf("sync=%d", syncEvery), func(b *testing.B) {
			jcfg := journal.Config{SyncEvery: syncEvery, SnapshotEvery: 0, KeepSnapshots: 2}
			jeng, _, err := journal.OpenSharded(b.TempDir(), peers, 1, core.DefaultConfig(), jcfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			events := journalWorkload(peers, 4096)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := events[i%len(events)]
				ev.Time = time.Duration(i) * time.Second
				if err := jeng.Apply(ev); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := jeng.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// journalState adapts a one-shard engine to journal.State so
// BenchmarkRecovery can reopen a prepared data dir without mutating it
// (Log.Close takes no snapshot, unlike journal.ShardedEngine's Close).
// It replays, snapshots and restores the engine's shard 0 as the
// sharded journal does, so recovery reads the same snapshot format.
type journalState struct {
	eng *core.Sharded
}

func (s *journalState) Apply(payload []byte) error {
	ev, err := journal.DecodeEvent(payload)
	if err != nil {
		return err
	}
	return s.eng.ApplyShard(0, ev)
}

func (s *journalState) Snapshot() ([]byte, error) {
	st, err := s.eng.ExportShardState(0)
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

func (s *journalState) Restore(snapshot []byte) error {
	var st core.ShardState
	if err := json.Unmarshal(snapshot, &st); err != nil {
		return err
	}
	return s.eng.RestoreShard(0, &st)
}

// buildJournalDir writes a 100k-event journal into dir, snapshotting at
// the configured interval (0 = never, leaving a WAL that must be fully
// replayed).
func buildJournalDir(b *testing.B, dir string, events []core.Event, snapshotEvery uint64) {
	b.Helper()
	eng, err := core.NewSharded(100, 1, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := journal.Config{SyncEvery: 1024, SnapshotEvery: snapshotEvery, KeepSnapshots: 2}
	state := &journalState{eng: eng}
	log, _, err := journal.Open(dir, cfg, state)
	if err != nil {
		b.Fatal(err)
	}
	for _, ev := range events {
		if err := eng.ApplyEvent(ev); err != nil {
			b.Fatal(err)
		}
		if err := log.Append(journal.EncodeEvent(ev)); err != nil {
			b.Fatal(err)
		}
		if log.SnapshotDue() {
			if err := log.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecovery measures crash recovery of a 100k-event journal. The
// full-replay case re-applies every event; the snapshot case loads the
// newest snapshot (taken at 90k with a 15k interval) and replays only the
// 10k-event tail — bounded by SnapshotEvery regardless of history length.
func BenchmarkRecovery(b *testing.B) {
	events := journalWorkload(100, 100_000)
	for _, tc := range []struct {
		name          string
		snapshotEvery uint64
	}{
		{"full-replay", 0},
		{"snapshot-tail", 15_000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dir := b.TempDir()
			buildJournalDir(b, dir, events, tc.snapshotEvery)
			cfg := journal.Config{SyncEvery: 1024, SnapshotEvery: tc.snapshotEvery, KeepSnapshots: 2}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := core.NewSharded(100, 1, core.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				log, info, err := journal.Open(dir, cfg, &journalState{eng: eng})
				if err != nil {
					b.Fatal(err)
				}
				if info.SnapshotSeq+info.Replayed != uint64(len(events)) {
					b.Fatalf("recovered %d+%d events, want %d", info.SnapshotSeq, info.Replayed, len(events))
				}
				if err := log.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSystemIngest measures the public-API write path: one download
// record plus one vote.
func BenchmarkSystemIngest(b *testing.B) {
	sys, err := mdrep.NewSystem(100)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := time.Duration(i) * time.Second
		f := mdrep.FileID(fmt.Sprintf("f-%d", i%500))
		if err := sys.RecordDownload(i%100, (i+1)%100, f, 1<<20, now); err != nil {
			b.Fatal(err)
		}
		if err := sys.Vote(i%100, f, 0.9, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemJudge measures the public-API read path — a fresh
// multi-trust judgement including matrix construction — on a fixed
// evidence load.
func BenchmarkSystemJudge(b *testing.B) {
	sys, err := mdrep.NewSystem(100)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		now := time.Duration(i) * time.Second
		f := mdrep.FileID(fmt.Sprintf("f-%d", i%200))
		if err := sys.RecordDownload(i%100, (i+1)%100, f, 1<<20, now); err != nil {
			b.Fatal(err)
		}
		if err := sys.Vote(i%100, f, 0.9, now); err != nil {
			b.Fatal(err)
		}
	}
	owners := []mdrep.OwnerEvaluation{{Owner: 1, Value: 0.9}, {Owner: 2, Value: 0.1}}
	now := 2000 * time.Second
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sys.JudgeFile(i%100, owners, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedApplyBatch measures group-commit ingest through the
// sharded facade as the shard count grows. Each iteration applies one
// pre-built 256-event batch; with k shards the batch fans out to k
// workers that each take only their own shard's lock. On a single-core
// host the curve reads as lock-partitioning overhead; on multi-core it
// reads as ingest scaling.
func BenchmarkShardedApplyBatch(b *testing.B) {
	const n, batchLen = 2000, 256
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			eng, err := core.NewSharded(n, k, core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			batches := make([][]core.Event, 8)
			for bi := range batches {
				evs := make([]core.Event, 0, batchLen)
				for i := 0; len(evs) < batchLen; i++ {
					p, q := (bi*batchLen+i*7)%n, (bi*batchLen+i*13+1)%n
					f := eval.FileID(fmt.Sprintf("f-%d", i%64))
					now := time.Duration(bi*batchLen+i) * time.Second
					switch i % 3 {
					case 0:
						evs = append(evs, core.Event{Kind: core.EventVote, I: p, File: f, Value: 0.9, Time: now})
					case 1:
						if p != q {
							evs = append(evs, core.Event{Kind: core.EventDownload, I: p, J: q, File: f, Size: 1 << 20, Time: now})
						}
					case 2:
						if p != q {
							evs = append(evs, core.Event{Kind: core.EventRateUser, I: p, J: q, Value: 0.8})
						}
					}
				}
				batches[bi] = evs
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.ApplyBatch(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedRebuild measures the parallel per-shard TM rebuild
// after a full ingest: every iteration dirties one peer per shard and
// re-freezes, so the work is the incremental recompute plus the k-way
// row-set merge.
func BenchmarkShardedRebuild(b *testing.B) {
	const n = 2000
	for _, k := range []int{1, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			eng, err := core.NewSharded(n, k, core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 4*n; i++ {
				f := eval.FileID(fmt.Sprintf("f-%d", i%256))
				if err := eng.Vote(i%n, f, 0.9, time.Duration(i)*time.Second); err != nil {
					b.Fatal(err)
				}
			}
			now := time.Duration(4*n) * time.Second
			// A fixed evaluator set on "hot"; every op flips one of its
			// votes, so each op dirties the same rows whatever b.N is.
			for p := 0; p < n; p += n / 64 {
				if err := eng.Vote(p, "hot", 0.5, now); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := eng.TM(now); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Vote(0, "hot", float64(i%2), now); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.TM(now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedIngest is the core stage of durable ingest without the
// journal: a two-shard engine over 2,000 peers, each evaluating 4 of
// 2,000 library files (alternately by vote and implicitly) with 2
// downloads and 2 ratings, then per op one 64-event batch of 70% votes,
// 20% implicit evaluations and 10% ratings on that library, a TM
// rebuild, one RM row and one file verdict. Events overwrite the
// library, so the op cost stays flat whatever b.N is.
func BenchmarkShardedIngest(b *testing.B) {
	const (
		n, k, files, perUser = 2000, 2, 2000, 4
		batchLen, batches    = 64, 256
	)
	rng := sim.NewRNG(21)
	fileID := make([]eval.FileID, files)
	for f := range fileID {
		fileID[f] = eval.FileID(fmt.Sprintf("%016x", rng.Uint64()))
	}
	lib := make([][]int, n)
	evalBy := make([][]int, files)
	for u := range lib {
		for len(lib[u]) < perUser {
			if f := rng.Intn(files); !slices.Contains(lib[u], f) {
				lib[u] = append(lib[u], f)
				evalBy[f] = append(evalBy[f], u)
			}
		}
	}
	eng, err := core.NewSharded(n, k, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	t0 := time.Hour
	var preload []core.Event
	for u, fs := range lib {
		for i, f := range fs {
			kind := core.EventVote
			if i%2 == 1 {
				kind = core.EventSetImplicit
			}
			preload = append(preload, core.Event{Kind: kind, I: u, File: fileID[f], Value: rng.Float64(), Time: t0})
		}
		for i := 0; i < 2; i++ {
			f := fs[rng.Intn(perUser)]
			if up := evalBy[f][rng.Intn(len(evalBy[f]))]; up != u {
				preload = append(preload, core.Event{Kind: core.EventDownload, I: u, J: up, File: fileID[f], Size: 1 << 20, Time: t0})
			}
			if v := rng.Intn(n); v != u {
				preload = append(preload, core.Event{Kind: core.EventRateUser, I: u, J: v, Value: rng.Float64()})
			}
		}
	}
	if err := eng.ApplyBatch(preload); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.TM(t0); err != nil {
		b.Fatal(err)
	}
	type op struct {
		evs      []core.Event
		q, qFile int
	}
	ops := make([]op, batches)
	for i := range ops {
		for len(ops[i].evs) < batchLen {
			u := rng.Intn(n)
			f := lib[u][rng.Intn(perUser)]
			switch r := rng.Float64(); {
			case r < 0.7:
				ops[i].evs = append(ops[i].evs, core.Event{Kind: core.EventVote, I: u, File: fileID[f], Value: rng.Float64()})
			case r < 0.9:
				ops[i].evs = append(ops[i].evs, core.Event{Kind: core.EventSetImplicit, I: u, File: fileID[f], Value: rng.Float64()})
			default:
				if v := rng.Intn(n); v != u {
					ops[i].evs = append(ops[i].evs, core.Event{Kind: core.EventRateUser, I: u, J: v, Value: rng.Float64()})
				}
			}
		}
		ops[i].q = rng.Intn(n)
		ops[i].qFile = lib[ops[i].q][rng.Intn(perUser)]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := ops[i%batches]
		now := t0 + time.Duration(i+1)*time.Second
		for j := range o.evs {
			o.evs[j].Time = now
		}
		if err := eng.ApplyBatch(o.evs); err != nil {
			b.Fatal(err)
		}
		tm, err := eng.TM(now)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.ReputationsFromTM(tm, o.q); err != nil {
			b.Fatal(err)
		}
		owners := eng.CollectOwnerEvaluations(fileID[o.qFile], evalBy[o.qFile], now)
		if _, err := eng.JudgeFileFromTM(tm, o.q, owners); err != nil {
			b.Fatal(err)
		}
	}
}
