package main

import (
	"flag"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/eval"
	"mdrep/internal/journal"
	"mdrep/internal/obs"
)

// engine hosts the sharded, journal-backed trust engine over a data
// directory: it recovers every shard's WAL in parallel, group-commits a
// synthetic ingest batch (one fsync per shard), and prints peer 0's
// reputation row. Re-running against the same -data-dir accumulates
// evidence across invocations — kill it between runs and the recovery
// report shows the per-shard replay. With -crash the process exits
// without closing the journal, leaving only group-committed state for
// the next invocation to recover.
func engineCmd(args []string) error {
	fs := flag.NewFlagSet("engine", flag.ContinueOnError)
	dataDir := fs.String("data-dir", "", "directory for the sharded journal (required)")
	n := fs.Int("n", 64, "population size")
	shards := fs.Int("shards", 4, "shard count (1..256)")
	events := fs.Int("events", 256, "synthetic events to ingest this run")
	batch := fs.Int("batch", 64, "group-commit batch size")
	seed := fs.Int64("seed", 1, "workload seed")
	crash := fs.Bool("crash", false, "exit without Close (simulated crash; group commits survive)")
	metricsAddr := fs.String("metrics-addr", "", "optional introspection address: Prometheus /metrics, expvar, pprof")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("engine: -data-dir is required")
	}
	reg, msrv, err := startMetrics(*metricsAddr)
	if err != nil {
		return err
	}
	if msrv != nil {
		defer func() { _ = msrv.Close() }()
	}
	var obsFn journal.ShardObsFunc
	if reg != nil {
		obsFn = func(si int) *journal.LogObs {
			return journal.NewLogObs(reg, obs.WallClock, "shard", strconv.Itoa(si))
		}
	}
	eng, infos, err := journal.OpenSharded(*dataDir, *n, *shards, core.DefaultConfig(), journal.DefaultConfig(), obsFn)
	if err != nil {
		return err
	}
	if reg != nil {
		eng.Core().SetObserver(core.NewEngineObs(reg, obs.WallClock))
		eng.Core().SetShardObserver(core.NewShardedObs(reg, obs.WallClock, *shards))
	}
	var recovered uint64
	for si, info := range infos {
		recovered += info.SnapshotSeq + info.Replayed
		if info.SnapshotSeq+info.Replayed > 0 {
			fmt.Printf("shard %02d: recovered %d events (%d from snapshot, %d replayed)\n",
				si, info.SnapshotSeq+info.Replayed, info.SnapshotSeq, info.Replayed)
		}
	}
	fmt.Printf("engine: %d peers across %d shards, %d events recovered from %s\n",
		*n, eng.K(), recovered, *dataDir)

	base := time.Duration(eng.Seq()) * time.Second
	evs := engineWorkload(*n, *events, *seed, base)
	for len(evs) > 0 {
		b := *batch
		if b > len(evs) {
			b = len(evs)
		}
		if err := eng.ApplyBatch(evs[:b]); err != nil {
			return err
		}
		evs = evs[b:]
	}
	fmt.Printf("engine: ingested %d events in group-committed batches of %d (journal seq %d)\n",
		*events, *batch, eng.Seq())

	reps, err := eng.Core().Reputations(0, base+time.Duration(*events)*time.Second)
	if err != nil {
		return err
	}
	top, val := -1, -1.0
	for j := 0; j < *n; j++ {
		if v, ok := reps[j]; ok && v > val {
			top, val = j, v
		}
	}
	fmt.Printf("engine: peer 0 trusts %d peers; most trusted is peer %d (%.4f)\n", len(reps), top, val)
	if *crash {
		fmt.Println("engine: crashing without close — group-committed batches survive")
		return nil
	}
	return eng.Close()
}

// engineWorkload builds a deterministic mixed event stream: downloads,
// votes, implicit evaluations and user ratings across the population.
func engineWorkload(n, count int, seed int64, base time.Duration) []core.Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]core.Event, 0, count)
	for len(evs) < count {
		i, j := rng.Intn(n), rng.Intn(n)
		f := eval.FileID(fmt.Sprintf("file-%03d", rng.Intn(32)))
		now := base + time.Duration(len(evs))*time.Second
		switch rng.Intn(4) {
		case 0:
			evs = append(evs, core.Event{Kind: core.EventVote, I: i, File: f, Value: rng.Float64(), Time: now})
		case 1:
			evs = append(evs, core.Event{Kind: core.EventSetImplicit, I: i, File: f, Value: rng.Float64(), Time: now})
		case 2:
			if i != j {
				evs = append(evs, core.Event{Kind: core.EventDownload, I: i, J: j, File: f, Size: int64(1 + rng.Intn(1<<20)), Time: now})
			}
		case 3:
			if i != j {
				evs = append(evs, core.Event{Kind: core.EventRateUser, I: i, J: j, Value: rng.Float64()})
			}
		}
	}
	return evs
}
