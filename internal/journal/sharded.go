package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/eval"
)

// ShardedEngine is the durable form of core.Sharded, and the only
// journal-backed engine: every mutation is made durable through a Log
// before the call returns. Each shard owns a complete Log (WAL segments
// + snapshots) in its own subdirectory, `shard-00/`, `shard-01/`, …,
// beside a `shards.json` manifest pinning the (n, k) partitioning; at
// k = 1 that is a single log under `shard-00/`. Ingest goes through the
// group-commit path — ApplyBatch partitions a batch by owner shard and
// each shard applies its sub-batch, appends it and pays exactly one
// fsync, all shards in parallel — so both lock handoffs and fsyncs
// amortise across the batch and write throughput scales with K.
//
// Durability shards cleanly because events with distinct owners commute
// (see core.Sharded): each shard's log records its own events in apply
// order, replay runs every shard's log in parallel through
// core.Sharded.ApplyShard, and the recovered state is bit-identical to
// the uninterrupted run regardless of how the shards' timelines
// interleaved. Global compactions are appended to every shard's log and
// replay as owned-peers-only compactions, whose union reproduces the
// original.
type ShardedEngine struct {
	s      *core.Sharded
	shards []journalShard
}

// journalShard pairs one shard's log with the mutex serialising its
// apply+append pairs, so the log records the shard's events in exactly
// the order they were applied — the invariant deterministic replay
// rests on. It is the only lock in this file. It nests outside the core
// shard data locks (ApplyShard acquires those), and no goroutine holds
// two of them at once.
type journalShard struct {
	mu  sync.Mutex
	log *Log
}

// shardState adapts one shard of a core.Sharded to the journal State
// interface: events replay through ApplyShard, snapshots are the
// shard's peers only (core.ShardState as JSON).
type shardState struct {
	s  *core.Sharded
	si int
}

func (st *shardState) Apply(payload []byte) error {
	ev, err := DecodeEvent(payload)
	if err != nil {
		return err
	}
	return st.s.ApplyShard(st.si, ev)
}

func (st *shardState) Snapshot() ([]byte, error) {
	sh, err := st.s.ExportShardState(st.si)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sh)
}

func (st *shardState) Restore(snapshot []byte) error {
	var sh core.ShardState
	if err := json.Unmarshal(snapshot, &sh); err != nil {
		return err
	}
	return st.s.RestoreShard(st.si, &sh)
}

// shardManifest pins a data directory to one partitioning. Reopening
// with a different n or k would route peers to different logs and
// silently corrupt history, so it is an error instead.
type shardManifest struct {
	N int `json:"n"`
	K int `json:"k"`
}

const manifestName = "shards.json"

func shardDirName(si int) string { return fmt.Sprintf("shard-%02d", si) }

func checkManifest(dir string, n, k int) error {
	path := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(path)
	if err == nil {
		var m shardManifest
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("journal: manifest %s: %w", path, err)
		}
		if m.N != n || m.K != k {
			return fmt.Errorf("journal: data dir is partitioned n=%d k=%d, engine configured n=%d k=%d", m.N, m.K, n, k)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return fmt.Errorf("journal: %w", err)
	}
	b, err = json.Marshal(shardManifest{N: n, K: k})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("journal: %w", err)
	}
	return syncDir(dir)
}

// ShardObsFunc supplies the per-shard log observer; nil disables
// instrumentation. OpenSharded calls it once per shard so each log's
// metrics carry a distinct shard label (see NewLogObs).
type ShardObsFunc func(si int) *LogObs

// OpenSharded recovers (or bootstraps) a sharded journal-backed engine
// for n peers across k shards from dataDir. Every shard recovers in
// parallel — snapshot restore plus tail replay touch only that shard's
// peers, so the workers never contend — and the per-shard RecoveryInfo
// slice reports what each had to do. jcfg applies to every shard's log;
// obsFn (optional) attaches a per-shard observer.
func OpenSharded(dataDir string, n, k int, cfg core.Config, jcfg Config, obsFn ShardObsFunc) (*ShardedEngine, []RecoveryInfo, error) {
	s, err := core.NewSharded(n, k, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if err := checkManifest(dataDir, n, k); err != nil {
		return nil, nil, err
	}
	e := &ShardedEngine{s: s, shards: make([]journalShard, k)}
	infos := make([]RecoveryInfo, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	wg.Add(k)
	for si := 0; si < k; si++ {
		go func(si int) {
			defer wg.Done()
			scfg := jcfg
			if obsFn != nil {
				scfg.Obs = obsFn(si)
			}
			log, info, err := Open(filepath.Join(dataDir, shardDirName(si)), scfg, &shardState{s: s, si: si})
			infos[si], errs[si] = info, err
			if err == nil {
				e.shards[si].log = log
			}
		}(si)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			for sj := range e.shards {
				if l := e.shards[sj].log; l != nil {
					_ = l.Close()
				}
			}
			return nil, infos, fmt.Errorf("journal: shard %d: %w", si, err)
		}
	}
	return e, infos, nil
}

// Core returns the sharded facade for reads (TM, Reputations,
// JudgeFile, …), callable from any goroutine. Mutating it directly
// bypasses the journal; use the ShardedEngine's own mutators.
func (e *ShardedEngine) Core() *core.Sharded { return e.s }

// K returns the shard count.
func (e *ShardedEngine) K() int { return len(e.shards) }

// Seq returns the total number of events recorded across all shard
// logs.
func (e *ShardedEngine) Seq() uint64 {
	var total uint64
	for si := range e.shards {
		sh := &e.shards[si]
		sh.mu.Lock()
		total += sh.log.Seq()
		sh.mu.Unlock()
	}
	return total
}

// recordShard applies then journals one event on shard si, snapshotting
// if the shard's interval has passed. Applying first keeps invalid
// events (bad peer index, out-of-range rating) out of the log entirely —
// replay must never fail on validation. A crash between apply and
// append only loses an event the caller was never told was durable.
func (e *ShardedEngine) recordShard(si int, ev core.Event) error {
	sh := &e.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := e.s.ApplyShard(si, ev); err != nil {
		return err
	}
	if err := sh.log.Append(EncodeEvent(ev)); err != nil {
		return err
	}
	if sh.log.SnapshotDue() {
		return sh.log.Snapshot()
	}
	return nil
}

// Apply durably records one event, routed to its owner shard. An
// EventCompact is recorded on every shard (ascending) — each shard's
// log must replay its own share of the compaction.
func (e *ShardedEngine) Apply(ev core.Event) error {
	if err := core.ValidateEvent(e.s.N(), ev); err != nil {
		return err
	}
	if ev.Kind == core.EventCompact {
		for si := range e.shards {
			if err := e.recordShard(si, ev); err != nil {
				return fmt.Errorf("journal: shard %d: %w", si, err)
			}
		}
		return nil
	}
	return e.recordShard(e.s.ShardOf(ev.I), ev)
}

// ApplyBatch is the group-commit ingest path: prevalidate (inheriting
// core's all-or-report contract — on a *core.BatchError nothing is
// applied or journaled), partition by owner shard, then apply+append
// each shard's sub-batch under its journal mutex and pay one fsync per
// shard, all shards in parallel. Batches containing EventCompact fall
// back to sequential Apply.
func (e *ShardedEngine) ApplyBatch(evs []core.Event) error {
	n := e.s.N()
	hasCompact := false
	for k := range evs {
		if err := core.ValidateEvent(n, evs[k]); err != nil {
			return &core.BatchError{Index: k, Err: err}
		}
		if evs[k].Kind == core.EventCompact {
			hasCompact = true
		}
	}
	if hasCompact {
		for k := range evs {
			if err := e.Apply(evs[k]); err != nil {
				return fmt.Errorf("journal: batch event %d: %w", k, err)
			}
		}
		return nil
	}
	parts := make([][]core.Event, len(e.shards))
	for _, ev := range evs {
		si := e.s.ShardOf(ev.I)
		parts[si] = append(parts[si], ev)
	}
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for si := range parts {
		if len(parts[si]) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sh := &e.shards[si]
			sh.mu.Lock()
			defer sh.mu.Unlock()
			for _, ev := range parts[si] {
				if err := e.s.ApplyShard(si, ev); err != nil {
					errs[si] = err
					return
				}
				if err := sh.log.Append(EncodeEvent(ev)); err != nil {
					errs[si] = err
					return
				}
			}
			// Group commit: one fsync covers the whole sub-batch.
			if err := sh.log.Sync(); err != nil {
				errs[si] = err
				return
			}
			if sh.log.SnapshotDue() {
				errs[si] = sh.log.Snapshot()
			}
		}(si)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			return fmt.Errorf("journal: shard %d: %w", si, err)
		}
	}
	return nil
}

// SetImplicit mirrors core.Sharded.SetImplicit, durably.
func (e *ShardedEngine) SetImplicit(p int, f eval.FileID, value float64, now time.Duration) error {
	return e.Apply(core.Event{Kind: core.EventSetImplicit, I: p, File: f, Value: value, Time: now})
}

// Vote mirrors core.Sharded.Vote, durably.
func (e *ShardedEngine) Vote(p int, f eval.FileID, value float64, now time.Duration) error {
	return e.Apply(core.Event{Kind: core.EventVote, I: p, File: f, Value: value, Time: now})
}

// RecordDownload mirrors core.Sharded.RecordDownload, durably.
func (e *ShardedEngine) RecordDownload(downloader, uploader int, f eval.FileID, size int64, now time.Duration) error {
	return e.Apply(core.Event{Kind: core.EventDownload, I: downloader, J: uploader, File: f, Size: size, Time: now})
}

// RateUser mirrors core.Sharded.RateUser, durably.
func (e *ShardedEngine) RateUser(i, j int, value float64) error {
	return e.Apply(core.Event{Kind: core.EventRateUser, I: i, J: j, Value: value})
}

// Blacklist mirrors core.Sharded.Blacklist, durably.
func (e *ShardedEngine) Blacklist(i, j int) error {
	return e.Apply(core.Event{Kind: core.EventBlacklist, I: i, J: j})
}

// Compact mirrors core.Sharded.Compact, durably on every shard.
func (e *ShardedEngine) Compact(now time.Duration) error {
	return e.Apply(core.Event{Kind: core.EventCompact, Time: now})
}

// Sync forces every shard's buffered appends to disk.
func (e *ShardedEngine) Sync() error {
	return e.eachShard(func(si int, sh *journalShard) error { return sh.log.Sync() })
}

// Snapshot forces a snapshot + log truncation on every shard, in
// parallel.
func (e *ShardedEngine) Snapshot() error {
	return e.eachShard(func(si int, sh *journalShard) error { return sh.log.Snapshot() })
}

// Close snapshots and closes every shard's log, so the next Open
// recovers instantly with no replay. Use Sync and drop the engine
// without Close to simulate a crash in tests.
func (e *ShardedEngine) Close() error {
	return e.eachShard(func(si int, sh *journalShard) error {
		if err := sh.log.Snapshot(); err != nil {
			_ = sh.log.Close()
			return err
		}
		return sh.log.Close()
	})
}

// eachShard runs fn per shard in parallel under the shard's journal
// mutex, returning the lowest-indexed error.
func (e *ShardedEngine) eachShard(fn func(si int, sh *journalShard) error) error {
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	wg.Add(len(e.shards))
	for si := range e.shards {
		go func(si int) {
			defer wg.Done()
			sh := &e.shards[si]
			sh.mu.Lock()
			defer sh.mu.Unlock()
			errs[si] = fn(si, sh)
		}(si)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			return fmt.Errorf("journal: shard %d: %w", si, err)
		}
	}
	return nil
}
