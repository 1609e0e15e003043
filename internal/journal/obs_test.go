package journal

import (
	"testing"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/eval"
	"mdrep/internal/metrics"
	"mdrep/internal/sparse"
)

func testClock() func() time.Time {
	now := time.Unix(0, 0)
	return func() time.Time {
		now = now.Add(time.Microsecond)
		return now
	}
}

// seedJournal writes a workload and leaves the log un-snapshotted (a
// simulated crash: synced but never closed), so reopening must replay.
func seedJournal(t *testing.T, dir string, n int) uint64 {
	t.Helper()
	jcfg := DefaultConfig()
	jcfg.SnapshotEvery = 0 // keep everything in the WAL tail
	je, _, err := openOne(dir, n, core.DefaultConfig(), jcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		f := "file-" + string(rune('a'+i%3))
		if err := je.Vote(i, eval.FileID(f), 0.5+float64(i%5)/10, time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := je.RecordDownload(i, (i+1)%n, eval.FileID(f), int64(1000+i), time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := je.RateUser(i, (i+2)%n, 0.8); err != nil {
			t.Fatal(err)
		}
	}
	if err := je.Sync(); err != nil {
		t.Fatal(err)
	}
	return je.Seq()
}

func TestLogObsCounts(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	jcfg := DefaultConfig()
	jcfg.SyncEvery = 2
	jcfg.Obs = NewLogObs(reg, testClock())
	je, _, err := openOne(dir, 3, core.DefaultConfig(), jcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := je.Vote(i%3, "f", 0.9, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := je.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := je.Close(); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("journal_append_total").Load(); got != 5 {
		t.Errorf("appends = %d, want 5", got)
	}
	if got := reg.Histogram("journal_append_seconds", metrics.DurationBuckets).Count(); got != 5 {
		t.Errorf("append spans = %d, want 5", got)
	}
	if got := reg.Counter("journal_fsync_total").Load(); got < 3 {
		t.Errorf("fsyncs = %d, want >= 3 (two batched + snapshot)", got)
	}
	if got := reg.Counter("journal_snapshot_total").Load(); got < 1 {
		t.Errorf("snapshots = %d, want >= 1", got)
	}
	if got := reg.Histogram("journal_snapshot_bytes", metrics.SizeBuckets).Count(); got < 1 {
		t.Errorf("snapshot size samples = %d, want >= 1", got)
	}
	if got := reg.Histogram("journal_recovery_seconds", metrics.DurationBuckets).Count(); got != 1 {
		t.Errorf("recovery spans = %d, want 1 (Open)", got)
	}

	// Reopen after the clean close: recovery restores the snapshot and
	// replays nothing.
	reg2 := metrics.NewRegistry()
	jcfg2 := DefaultConfig()
	jcfg2.Obs = NewLogObs(reg2, testClock())
	je2, info, err := openOne(dir, 3, core.DefaultConfig(), jcfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = je2.Close() }()
	if got := reg2.Counter("journal_replayed_events_total").Load(); got != info.Replayed {
		t.Errorf("replayed counter = %d, RecoveryInfo says %d", got, info.Replayed)
	}
}

func TestLogObsRecoveryReplayCount(t *testing.T) {
	dir := t.TempDir()
	seq := seedJournal(t, dir, 4)

	reg := metrics.NewRegistry()
	jcfg := DefaultConfig()
	jcfg.Obs = NewLogObs(reg, testClock())
	je, info, err := openOne(dir, 4, core.DefaultConfig(), jcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = je.Close() }()
	if info.Replayed != seq {
		t.Fatalf("replayed %d events, workload wrote %d", info.Replayed, seq)
	}
	if got := reg.Counter("journal_replayed_events_total").Load(); got != seq {
		t.Errorf("replayed counter = %d, want %d", got, seq)
	}
	if got := reg.Histogram("journal_recovery_seconds", metrics.DurationBuckets).Count(); got != 1 {
		t.Errorf("recovery spans = %d, want 1", got)
	}
}

// Replaying the same journal twice with full instrumentation enabled —
// journal observer, engine observer, and sparse kernel observer — must
// yield bit-identical engine state and trust matrices. Instrumentation
// only reads clocks around work; it must never feed time back into it.
func TestInstrumentedReplayDeterministic(t *testing.T) {
	dir := t.TempDir()
	const n = 6
	seedJournal(t, dir, n)

	openInstrumented := func() (string, []sparse.Entry) {
		reg := metrics.NewRegistry()
		sparse.Instrument(reg, testClock())
		defer sparse.Uninstrument()
		jcfg := DefaultConfig()
		jcfg.Obs = NewLogObs(reg, testClock())
		je, _, err := openOne(dir, n, core.DefaultConfig(), jcfg)
		if err != nil {
			t.Fatal(err)
		}
		je.Core().SetObserver(core.NewEngineObs(reg, testClock()))
		tm, err := je.Core().TM(time.Duration(n) * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// No Close: closing snapshots, which would change what the next
		// replay reads.
		return peersJSON(t, je.Core()), tm.Entries()
	}

	s1, tm1 := openInstrumented()
	s2, tm2 := openInstrumented()

	if s1 != s2 {
		t.Error("instrumented replays diverged: exported states differ")
	}
	if len(tm1) != len(tm2) {
		t.Fatalf("TM entry counts differ: %d vs %d", len(tm1), len(tm2))
	}
	for i := range tm1 {
		if tm1[i] != tm2[i] {
			t.Fatalf("TM entry %d differs: %+v vs %+v", i, tm1[i], tm2[i])
		}
	}
}
