package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/eval"
	"mdrep/internal/sim"
)

// genEvents produces a deterministic, varied engine workload: downloads,
// implicit evaluations, votes, ratings, blacklists and a periodic
// compaction.
func genEvents(n, count int) []core.Event {
	rng := sim.NewRNG(42)
	events := make([]core.Event, 0, count)
	now := time.Duration(0)
	file := func() string { return fmt.Sprintf("file-%03d", rng.Intn(60)) }
	pair := func() (int, int) {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			j = (j + 1) % n
		}
		return i, j
	}
	for k := 0; k < count; k++ {
		now += time.Minute
		switch rng.Intn(10) {
		case 0, 1, 2:
			i, j := pair()
			events = append(events, core.Event{
				Kind: core.EventDownload, I: i, J: j,
				File: fileID(file()), Size: int64(rng.Intn(1<<20) + 1), Time: now,
			})
		case 3, 4, 5:
			events = append(events, core.Event{
				Kind: core.EventSetImplicit, I: rng.Intn(n),
				File: fileID(file()), Value: rng.Float64(), Time: now,
			})
		case 6, 7:
			events = append(events, core.Event{
				Kind: core.EventVote, I: rng.Intn(n),
				File: fileID(file()), Value: rng.Float64(), Time: now,
			})
		case 8:
			i, j := pair()
			events = append(events, core.Event{Kind: core.EventRateUser, I: i, J: j, Value: rng.Float64()})
		case 9:
			if k%41 == 40 {
				i, j := pair()
				events = append(events, core.Event{Kind: core.EventBlacklist, I: i, J: j})
			} else if k%97 == 96 {
				events = append(events, core.Event{Kind: core.EventCompact, Time: now})
			} else {
				i, j := pair()
				events = append(events, core.Event{Kind: core.EventRateUser, I: i, J: j, Value: rng.Float64()})
			}
		}
	}
	return events
}

// applyToJournal routes one event through the journaled engine's typed
// mutators — the same path a real owner uses.
func applyToJournal(t *testing.T, je *ShardedEngine, ev core.Event) {
	t.Helper()
	var err error
	switch ev.Kind {
	case core.EventSetImplicit:
		err = je.SetImplicit(ev.I, ev.File, ev.Value, ev.Time)
	case core.EventVote:
		err = je.Vote(ev.I, ev.File, ev.Value, ev.Time)
	case core.EventDownload:
		err = je.RecordDownload(ev.I, ev.J, ev.File, ev.Size, ev.Time)
	case core.EventRateUser:
		err = je.RateUser(ev.I, ev.J, ev.Value)
	case core.EventBlacklist:
		err = je.Blacklist(ev.I, ev.J)
	case core.EventCompact:
		err = je.Compact(ev.Time)
	default:
		t.Fatalf("unhandled kind %v", ev.Kind)
	}
	if err != nil {
		t.Fatalf("apply %v: %v", ev.Kind, err)
	}
}

func fileID(s string) eval.FileID { return eval.FileID(s) }

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Steps = 2 // exercise the matrix power on the recovery path
	return cfg
}

// openOne opens dir as a one-shard journal, the layout every caller
// gets by default, and returns its single RecoveryInfo. The shard's WAL
// segments and snapshots live under shard0(dir).
func openOne(dir string, n int, cfg core.Config, jcfg Config) (*ShardedEngine, RecoveryInfo, error) {
	je, infos, err := OpenSharded(dir, n, 1, cfg, jcfg, nil)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	return je, infos[0], nil
}

// shard0 is the log directory of a one-shard journal in dir.
func shard0(dir string) string { return filepath.Join(dir, shardDirName(0)) }

// buildUninterrupted replays events into an in-memory one-shard engine
// that never saw a journal — the ground truth a recovered engine must
// match bit-for-bit.
func buildUninterrupted(t *testing.T, n int, events []core.Event) *core.Sharded {
	t.Helper()
	eng, err := core.NewSharded(n, 1, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := eng.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// peersJSON joins every shard's exported peers in ascending ID and
// encodes them: the engine's whole evidence, whatever its shard count.
func peersJSON(t *testing.T, s *core.Sharded) string {
	t.Helper()
	var peers []core.PeerState
	for si := 0; si < s.K(); si++ {
		st, err := s.ExportShardState(si)
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, st.Peers...)
	}
	sort.Slice(peers, func(a, b int) bool { return peers[a].ID < peers[b].ID })
	b, err := json.Marshal(peers)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkEnginesIdentical asserts equal per-peer state and bit-identical
// TM and RM = TM^Steps between two engines.
func checkEnginesIdentical(t *testing.T, want, got *core.Sharded, now time.Duration) {
	t.Helper()
	if peersJSON(t, want) != peersJSON(t, got) {
		t.Fatal("engine state diverged after recovery")
	}
	wantTM, err := want.TM(now)
	if err != nil {
		t.Fatal(err)
	}
	gotTM, err := got.TM(now)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantTM.Entries(), gotTM.Entries()) {
		t.Fatal("TM not bit-identical after recovery")
	}
	steps := want.Config().Steps
	wantRM, err := wantTM.Pow(steps)
	if err != nil {
		t.Fatal(err)
	}
	gotRM, err := gotTM.Pow(steps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantRM.Entries(), gotRM.Entries()) {
		t.Fatal("RM not bit-identical after recovery")
	}
}

func TestEmptyDirBootstrap(t *testing.T) {
	dir := t.TempDir()
	je, info, err := openOne(filepath.Join(dir, "data"), 10, testConfig(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != 0 || info.Replayed != 0 || info.TruncatedTail || info.SnapshotFallback {
		t.Fatalf("fresh dir recovery = %+v, want zero", info)
	}
	if err := je.Vote(1, "f", 0.9, time.Minute); err != nil {
		t.Fatal(err)
	}
	if je.Seq() != 1 {
		t.Fatalf("seq = %d, want 1", je.Seq())
	}
	if err := je.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryBitIdentical is the headline guarantee: a peer killed
// mid-run (snapshots taken along the way, unsynced tail flushed, no clean
// shutdown) recomputes TM and RM bit-identical to an uninterrupted run
// over the same event sequence.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	const n = 25
	events := genEvents(n, 400)
	now := 500 * time.Minute
	want := buildUninterrupted(t, n, events)

	dir := t.TempDir()
	jcfg := Config{SyncEvery: 16, SnapshotEvery: 150, KeepSnapshots: 2}
	je, _, err := openOne(dir, n, testConfig(), jcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		applyToJournal(t, je, ev)
	}
	// Simulate a crash: flush the log (a kill -9 after fsync) and abandon
	// the engine without Close, so no final snapshot is taken.
	if err := je.Sync(); err != nil {
		t.Fatal(err)
	}

	recovered, info, err := openOne(dir, n, testConfig(), jcfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq == 0 {
		t.Fatal("expected recovery from a snapshot, got full replay")
	}
	if info.SnapshotSeq+info.Replayed != uint64(len(events)) {
		t.Fatalf("recovered %d+%d events, want %d", info.SnapshotSeq, info.Replayed, len(events))
	}
	checkEnginesIdentical(t, want, recovered.Core(), now)
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornFinalRecord kills the log mid-write: the torn record must be
// truncated away and the engine recovered to the last intact event.
func TestTornFinalRecord(t *testing.T) {
	const n = 10
	events := genEvents(n, 40)
	dir := t.TempDir()
	jcfg := Config{SyncEvery: 1, SnapshotEvery: 0, KeepSnapshots: 2}
	je, _, err := openOne(dir, n, testConfig(), jcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		applyToJournal(t, je, ev)
	}
	// Tear the final record: chop a few bytes off the (single) segment.
	segs := listFiles(t, shard0(dir), "wal-")
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want 1", segs)
	}
	seg := filepath.Join(shard0(dir), segs[0])
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	recovered, info, err := openOne(dir, n, testConfig(), jcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !info.TruncatedTail {
		t.Fatal("torn tail not detected")
	}
	if info.Replayed != uint64(len(events)-1) {
		t.Fatalf("replayed %d events, want %d", info.Replayed, len(events)-1)
	}
	want := buildUninterrupted(t, n, events[:len(events)-1])
	checkEnginesIdentical(t, want, recovered.Core(), 100*time.Minute)

	// The truncated log must accept new appends and reopen cleanly.
	if err := recovered.Vote(0, "post-recovery", 0.5, 100*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := recovered.Sync(); err != nil {
		t.Fatal(err)
	}
	again, info2, err := openOne(dir, n, testConfig(), jcfg)
	if err != nil {
		t.Fatal(err)
	}
	if info2.TruncatedTail {
		t.Fatal("second recovery still sees a torn tail")
	}
	// A lone vote blends as ρ·value with a zero implicit component.
	wantEval := testConfig().Blend.Rho * 0.5
	if got, ok := again.Core().Evaluation(0, "post-recovery", 100*time.Minute); !ok || got != wantEval {
		t.Fatalf("post-recovery event lost: got %v,%v want %v", got, ok, wantEval)
	}
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGarbageTail appends raw garbage to the segment — a checksum
// mismatch rather than a short read — which must also be truncated.
func TestGarbageTail(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	jcfg := Config{SyncEvery: 1, SnapshotEvery: 0, KeepSnapshots: 2}
	je, _, err := openOne(dir, n, testConfig(), jcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range genEvents(n, 20) {
		applyToJournal(t, je, ev)
	}
	segs := listFiles(t, shard0(dir), "wal-")
	seg := filepath.Join(shard0(dir), segs[0])
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 9, 0xDE, 0xAD, 0xBE, 0xEF, 'g', 'a', 'r', 'b', 'a', 'g', 'e', '!', '!'}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, info, err := openOne(dir, n, testConfig(), jcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !info.TruncatedTail {
		t.Fatal("garbage tail not detected")
	}
	if info.Replayed != 20 {
		t.Fatalf("replayed %d, want all 20 intact events", info.Replayed)
	}
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptSnapshotFallback flips bytes in the newest snapshot: recovery
// must fall back to the previous generation and replay the longer tail,
// still landing on bit-identical state.
func TestCorruptSnapshotFallback(t *testing.T) {
	const n = 20
	events := genEvents(n, 300)
	now := 400 * time.Minute
	want := buildUninterrupted(t, n, events)

	dir := t.TempDir()
	jcfg := Config{SyncEvery: 8, SnapshotEvery: 100, KeepSnapshots: 2}
	je, _, err := openOne(dir, n, testConfig(), jcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		applyToJournal(t, je, ev)
	}
	if err := je.Sync(); err != nil {
		t.Fatal(err)
	}

	snaps := listFiles(t, shard0(dir), "snap-")
	if len(snaps) != 2 {
		t.Fatalf("snapshots on disk = %v, want 2 generations", snaps)
	}
	newest := filepath.Join(shard0(dir), snaps[len(snaps)-1])
	corruptFile(t, newest)

	recovered, info, err := openOne(dir, n, testConfig(), jcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !info.SnapshotFallback {
		t.Fatal("fallback to older snapshot not reported")
	}
	if info.SnapshotSeq != 200 {
		t.Fatalf("recovered from snapshot %d, want 200", info.SnapshotSeq)
	}
	if info.SnapshotSeq+info.Replayed != uint64(len(events)) {
		t.Fatalf("recovered %d+%d events, want %d", info.SnapshotSeq, info.Replayed, len(events))
	}
	checkEnginesIdentical(t, want, recovered.Core(), now)
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCleanShutdownRecoversInstantly: Close snapshots, so the next Open
// replays nothing.
func TestCleanShutdownRecoversInstantly(t *testing.T) {
	const n = 12
	events := genEvents(n, 120)
	dir := t.TempDir()
	je, _, err := openOne(dir, n, testConfig(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		applyToJournal(t, je, ev)
	}
	if err := je.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, info, err := openOne(dir, n, testConfig(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 0 {
		t.Fatalf("replayed %d events after clean shutdown, want 0", info.Replayed)
	}
	if info.SnapshotSeq != uint64(len(events)) {
		t.Fatalf("snapshot covers %d events, want %d", info.SnapshotSeq, len(events))
	}
	want := buildUninterrupted(t, n, events)
	checkEnginesIdentical(t, want, recovered.Core(), 150*time.Minute)
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPruning: old generations and dead segments must disappear.
func TestSnapshotPruning(t *testing.T) {
	const n = 10
	dir := t.TempDir()
	jcfg := Config{SyncEvery: 4, SnapshotEvery: 50, KeepSnapshots: 2}
	je, _, err := openOne(dir, n, testConfig(), jcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range genEvents(n, 500) {
		applyToJournal(t, je, ev)
	}
	if err := je.Close(); err != nil {
		t.Fatal(err)
	}
	snaps := listFiles(t, shard0(dir), "snap-")
	if len(snaps) > 2 {
		t.Fatalf("%d snapshot generations on disk, want <= 2: %v", len(snaps), snaps)
	}
	segs := listFiles(t, shard0(dir), "wal-")
	if len(segs) > 3 {
		t.Fatalf("%d segments on disk after pruning: %v", len(segs), segs)
	}
}

// TestPopulationMismatch: reopening a data directory with a different
// population must fail loudly, not renumber peers. The shards.json
// manifest pins n before any snapshot is read.
func TestPopulationMismatch(t *testing.T) {
	dir := t.TempDir()
	je, _, err := openOne(dir, 10, testConfig(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := je.Vote(1, "f", 0.9, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := je.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openOne(dir, 11, testConfig(), DefaultConfig()); err == nil {
		t.Fatal("population mismatch accepted")
	}
}

func listFiles(t *testing.T, dir, prefix string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(raw) / 2; i < len(raw)/2+8 && i < len(raw); i++ {
		raw[i] ^= 0xFF
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
