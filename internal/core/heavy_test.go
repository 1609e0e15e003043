package core

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/metrics"
)

// TestShardedMillionPeerBuild is the memory acceptance experiment for
// the sharded engine: build a 1M-peer, 8-shard engine, ingest a sparse
// evidence load through group-commit batches, build TM once, apply one
// 64-vote batch and time the incremental rebuild, and report heap after
// GC twice: with the engine and the final TM live, then with the final
// TM alone. Gated behind MDREP_HEAVY=1 — it allocates hundreds of MB
// and runs for minutes, so it stays out of tier-1; EXPERIMENTS.md
// records the measured numbers.
func TestShardedMillionPeerBuild(t *testing.T) {
	if os.Getenv("MDREP_HEAVY") != "1" {
		t.Skip("set MDREP_HEAVY=1 to run the 1M-peer memory experiment")
	}
	const n, k, rows = 1_000_000, 8, 200_000
	s, err := NewSharded(n, k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// ~5 evidence entries per active peer over a fifth of the population:
	// the sparse regime the paper's population operates in.
	batch := make([]Event, 0, 4096)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if err := s.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
	}
	start := time.Now()
	events := 0
	for i := 0; i < rows; i++ {
		p := (i * 5) % n
		f := eval.FileID(fmt.Sprintf("f-%d", i%4096))
		now := time.Duration(i) * time.Millisecond
		batch = append(batch,
			Event{Kind: EventVote, I: p, File: f, Value: 0.9, Time: now},
			Event{Kind: EventDownload, I: p, J: (p + 1) % n, File: f, Size: 1 << 20, Time: now},
			Event{Kind: EventRateUser, I: p, J: (p + 7) % n, Value: 0.8},
		)
		events += 3
		if len(batch) >= 4096-3 {
			flush()
		}
	}
	flush()
	ingest := time.Since(start)

	start = time.Now()
	now := time.Duration(rows) * time.Millisecond
	full, err := s.TM(now)
	if err != nil {
		t.Fatal(err)
	}
	build := time.Since(start)

	// One 64-vote batch on 64 files: the rebuild recomputes the FM rows
	// of those files' co-evaluators and the voters' DM rows, and patches
	// TM in them.
	reg := metrics.NewRegistry()
	s.SetObserver(NewEngineObs(reg, nil))
	batch = batch[:0]
	for i := 0; i < 64; i++ {
		f := eval.FileID(fmt.Sprintf("f-%d", i%4096))
		batch = append(batch, Event{Kind: EventVote, I: (i * 5) % n, File: f, Value: 0.1, Time: now})
	}
	flush()
	start = time.Now()
	tm, err := s.TM(now)
	if err != nil {
		t.Fatal(err)
	}
	patch := time.Since(start)
	recomputed := map[string]uint64{}
	for _, dim := range []string{"fm", "dm", "um"} {
		recomputed[dim] = reg.Counter("engine_dirty_rows_total", "dim", dim).Load()
	}
	changed := 0
	for i := 0; i < n; i++ {
		fc, fv := full.Row(i)
		tc, tv := tm.Row(i)
		if !slices.Equal(fc, tc) || !slices.Equal(fv, tv) {
			changed++
		}
	}
	full = nil

	var withEngine, ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&withEngine)
	runtime.KeepAlive(s)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	t.Logf("n=%d k=%d: %d events ingested in %v (%.0f ev/s), TM build %v, TM nnz %d; "+
		"64-vote rebuild %v (recomputed rows fm %d dm %d um %d, %d TM rows changed); "+
		"heap %.1f MB with the engine, %.1f MB with the final TM alone",
		n, k, events, ingest, float64(events)/ingest.Seconds(), build, tm.NNZ(),
		patch, recomputed["fm"], recomputed["dm"], recomputed["um"], changed,
		float64(withEngine.HeapAlloc)/(1<<20), float64(ms.HeapAlloc)/(1<<20))
	if tm.NNZ() == 0 {
		t.Fatal("million-peer TM is empty")
	}
}
