package journal

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/eval"
)

// shardedScript builds a deterministic event log for n peers without
// compactions (the truncation test needs a 1:1 event→shard-log mapping;
// compacted variants are covered separately).
func shardedScript(n, count int, seed int64) []core.Event {
	rng := rand.New(rand.NewSource(seed))
	var evs []core.Event
	for len(evs) < count {
		i, j := rng.Intn(n), rng.Intn(n)
		f := eval.FileID(fmt.Sprintf("file-%02d", rng.Intn(8)))
		now := time.Duration(len(evs)) * time.Minute
		switch rng.Intn(4) {
		case 0:
			evs = append(evs, core.Event{Kind: core.EventVote, I: i, File: f, Value: rng.Float64(), Time: now})
		case 1:
			evs = append(evs, core.Event{Kind: core.EventSetImplicit, I: i, File: f, Value: rng.Float64(), Time: now})
		case 2:
			if i != j {
				evs = append(evs, core.Event{Kind: core.EventDownload, I: i, J: j, File: f, Size: int64(rng.Intn(1 << 16)), Time: now})
			}
		case 3:
			if i != j {
				evs = append(evs, core.Event{Kind: core.EventRateUser, I: i, J: j, Value: rng.Float64()})
			}
		}
	}
	return evs
}

// TestShardedJournalRecovery proves per-shard recovery is bit-identical:
// a crash (fsynced logs abandoned without snapshot) and a clean close
// (snapshot per shard) both reopen, in parallel, to exactly the state of
// the uninterrupted run — including a mid-stream global compaction that
// lands on every shard's log.
func TestShardedJournalRecovery(t *testing.T) {
	const n, k = 20, 4
	cfg := core.DefaultConfig()
	cfg.Window = time.Hour
	jcfg := Config{SyncEvery: 1, SnapshotEvery: 0, KeepSnapshots: 2}
	dir := t.TempDir()

	e, infos, err := OpenSharded(dir, n, k, cfg, jcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != k {
		t.Fatalf("got %d recovery infos, want %d", len(infos), k)
	}
	evs := shardedScript(n, 300, 3)
	for i, ev := range evs {
		if i%3 == 0 {
			if err := e.Apply(ev); err != nil {
				t.Fatal(err)
			}
		} else if i%50 == 1 {
			if err := e.ApplyBatch(evs[i : i+1]); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := e.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Compact(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyBatch(shardedScript(n, 100, 4)); err != nil {
		t.Fatal(err)
	}
	want := peersJSON(t, e.Core())
	wantSeq := e.Seq()
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon without Close — recovery must replay the tails.
	e2, infos, err := OpenSharded(dir, n, k, cfg, jcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var replayed uint64
	for _, info := range infos {
		replayed += info.Replayed
	}
	if replayed != wantSeq {
		t.Fatalf("replayed %d events across shards, want %d", replayed, wantSeq)
	}
	if got := peersJSON(t, e2.Core()); got != want {
		t.Fatal("crash-recovered state differs from pre-crash state")
	}
	// Clean close snapshots every shard; reopen must replay nothing.
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3, infos, err := OpenSharded(dir, n, k, cfg, jcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for si, info := range infos {
		if info.Replayed != 0 {
			t.Fatalf("shard %d replayed %d events after clean close", si, info.Replayed)
		}
		if info.SnapshotSeq == 0 && e3.shards[si].log.Seq() > 0 {
			t.Fatalf("shard %d recovered without its snapshot", si)
		}
	}
	if got := peersJSON(t, e3.Core()); got != want {
		t.Fatal("snapshot-recovered state differs")
	}
	if err := e3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedJournalManifest pins the partitioning: reopening a data
// directory with a different shard count or population must fail.
func TestShardedJournalManifest(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig()
	jcfg := Config{SyncEvery: 1}
	e, _, err := OpenSharded(dir, 10, 2, cfg, jcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSharded(dir, 10, 4, cfg, jcfg, nil); err == nil {
		t.Fatal("shard count change accepted")
	}
	if _, _, err := OpenSharded(dir, 12, 2, cfg, jcfg, nil); err == nil {
		t.Fatal("population change accepted")
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer func() { _ = in.Close() }()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			_ = out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardedJournalTruncationEveryOffset is the crash matrix: one
// shard's only WAL segment is truncated at every byte offset in turn,
// and recovery must succeed every time with exactly the durable prefix
// of that shard's events — other shards untouched. Cross-shard event
// commutation makes the expected state constructible: all other shards'
// events plus the prefix of the victim shard's.
func TestShardedJournalTruncationEveryOffset(t *testing.T) {
	const n, k, victim = 12, 2, 1
	cfg := core.DefaultConfig()
	jcfg := Config{SyncEvery: 1, SnapshotEvery: 0}
	base := t.TempDir()
	e, _, err := OpenSharded(base, n, k, cfg, jcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	evs := shardedScript(n, 40, 9)
	for _, ev := range evs {
		if err := e.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	// Abandon e (simulated crash); work on copies of its data dir.
	victimEvents := make([]core.Event, 0, len(evs))
	for _, ev := range evs {
		if e.Core().ShardOf(ev.I) == victim {
			victimEvents = append(victimEvents, ev)
		}
	}
	segs, err := filepath.Glob(filepath.Join(base, shardDirName(victim), "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one victim segment, got %v (%v)", segs, err)
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	size := st.Size()
	// Expected state for a given count of surviving victim events.
	expectAt := make(map[int]string)
	for r := 0; r <= len(victimEvents); r++ {
		s, err := core.NewSharded(n, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for _, ev := range evs {
			if e.Core().ShardOf(ev.I) == victim {
				if seen < r {
					if err := s.ApplyEvent(ev); err != nil {
						t.Fatal(err)
					}
				}
				seen++
				continue
			}
			if err := s.ApplyEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		expectAt[r] = peersJSON(t, s)
	}
	for off := int64(0); off <= size; off++ {
		dir := filepath.Join(t.TempDir(), "copy")
		copyTree(t, base, dir)
		seg := filepath.Join(dir, shardDirName(victim), filepath.Base(segs[0]))
		if err := os.Truncate(seg, off); err != nil {
			t.Fatal(err)
		}
		e2, infos, err := OpenSharded(dir, n, k, cfg, jcfg, nil)
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		r := int(infos[victim].Replayed)
		if r > len(victimEvents) {
			t.Fatalf("offset %d: replayed %d > %d durable events", off, r, len(victimEvents))
		}
		if got := peersJSON(t, e2.Core()); got != expectAt[r] {
			t.Fatalf("offset %d: recovered state does not match the %d-event prefix", off, r)
		}
		if err := e2.Close(); err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
	}
}

// TestShardedJournalGroupCommitDurable proves the one-fsync-per-shard
// group commit really syncs: a batch is durable immediately after
// ApplyBatch returns, with no explicit Sync.
func TestShardedJournalGroupCommitDurable(t *testing.T) {
	const n, k = 16, 4
	cfg := core.DefaultConfig()
	// Large SyncEvery: only the group commit's own Sync makes these durable.
	jcfg := Config{SyncEvery: 1 << 20, SnapshotEvery: 0}
	dir := t.TempDir()
	e, _, err := OpenSharded(dir, n, k, cfg, jcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	evs := shardedScript(n, 200, 5)
	if err := e.ApplyBatch(evs); err != nil {
		t.Fatal(err)
	}
	want := peersJSON(t, e.Core())
	// Crash without Sync or Close.
	e2, _, err := OpenSharded(dir, n, k, cfg, jcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := peersJSON(t, e2.Core()); got != want {
		t.Fatal("group-committed batch not durable after crash")
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
}
