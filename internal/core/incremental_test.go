package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/metrics"
	"mdrep/internal/sim"
	"mdrep/internal/sparse"
)

// Sharded's rebuild recomputes only dirty rows and patches TM in them;
// the result must be indistinguishable from a from-scratch build — not
// approximately: bit-for-bit, entry-for-entry. These tests drive
// sharded engines at K = 1 and K = 3 through randomised event streams
// interleaved with builds at moving (and occasionally reversed) virtual
// times, compactions, window expiry and restores, and after every build
// compare TM and each dimension's row store against the map-backed
// reference builders, which construct everything from scratch.

// incrementalShards are the shard counts the incremental tests run at:
// the default, and one that splits rows and dirty sets across workers.
var incrementalShards = []int{1, 3}

// mustMatchRef fails unless the entries equal the reference matrix's
// exactly.
func mustMatchRef(t *testing.T, label string, ref *sparse.Matrix, have []sparse.Entry) {
	t.Helper()
	want := ref.Entries()
	if len(want) != len(have) {
		t.Fatalf("%s: %d entries, want %d", label, len(have), len(want))
	}
	for k := range want {
		if want[k] != have[k] {
			t.Fatalf("%s: entry %d = %+v, want %+v", label, k, have[k], want[k])
		}
	}
}

// rowEntries flattens a row store into entries sorted by (row, col).
func rowEntries(rows []sparse.Row) []sparse.Entry {
	var out []sparse.Entry
	for i, r := range rows {
		for k, j := range r.Cols {
			out = append(out, sparse.Entry{Row: i, Col: int(j), Val: r.Vals[k]})
		}
	}
	return out
}

// checkAllDims builds TM at now and compares it and each dimension's
// row store against the from-scratch references. It returns the TM.
func checkAllDims(t *testing.T, s *Sharded, now time.Duration, label string) *sparse.CSR {
	t.Helper()
	tm, err := s.TM(now)
	if err != nil {
		t.Fatal(err)
	}
	mustMatchRef(t, label+"/FM", s.eng.buildFMRef(now), rowEntries(s.dims[dimFM]))
	mustMatchRef(t, label+"/DM", s.eng.buildDMRef(now), rowEntries(s.dims[dimDM]))
	mustMatchRef(t, label+"/UM", s.eng.buildUMRef(), rowEntries(s.dims[dimUM]))
	refTM, err := s.eng.buildTMRef(now)
	if err != nil {
		t.Fatal(err)
	}
	mustMatchRef(t, label+"/TM", refTM, tm.Entries())
	return tm
}

// mustSharded builds a sharded engine or fails the test.
func mustSharded(t *testing.T, n, k int, cfg Config) *Sharded {
	t.Helper()
	s, err := NewSharded(n, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// forShards runs fn as one subtest per incremental shard count.
func forShards(t *testing.T, fn func(t *testing.T, k int)) {
	for _, k := range incrementalShards {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { fn(t, k) })
	}
}

// applyRandomEvent applies one random valid event.
func applyRandomEvent(t *testing.T, s *Sharded, r *sim.RNG, n int, now time.Duration) {
	t.Helper()
	i, j := r.Intn(n), r.Intn(n)
	fid := eval.FileID(fmt.Sprintf("f%d", r.Intn(12)))
	var err error
	switch r.Intn(6) {
	case 0:
		err = s.Vote(i, fid, r.Float64(), now)
	case 1:
		err = s.SetImplicit(i, fid, r.Float64(), now)
	case 2:
		if i == j {
			return
		}
		err = s.RecordDownload(i, j, fid, int64(r.Intn(1<<20)+1), now)
	case 3:
		if i == j {
			return
		}
		err = s.RateUser(i, j, r.Float64())
	case 4:
		if i == j {
			return
		}
		err = s.Blacklist(i, j)
	case 5:
		s.Compact(now)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalMatchesReference is the main differential property test:
// random event streams, builds every few events at advancing and
// occasionally earlier times, windows short enough that evaluations
// expire mid-run, periodic compaction, and no-op rebuilds.
func TestIncrementalMatchesReference(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		rng := sim.NewRNG(211)
		for trial := 0; trial < 8; trial++ {
			r := rng.DeriveStream(fmt.Sprintf("trial-%d", trial))
			n := 4 + r.Intn(14)
			cfg := DefaultConfig()
			if trial%2 == 0 {
				// Short window: records expire between builds.
				cfg.Window = 30 * time.Minute
			}
			if trial%3 == 0 {
				cfg.MaxEvaluatorsPerFile = 3
			}
			s := mustSharded(t, n, k, cfg)
			now := time.Duration(0)
			for step := 0; step < 120; step++ {
				now += time.Duration(r.Intn(10)) * time.Minute
				applyRandomEvent(t, s, r, n, now)
				if step%5 != 0 {
					continue
				}
				at := now
				if r.Intn(6) == 0 {
					at -= time.Duration(r.Intn(60)) * time.Minute // time moves backwards
				}
				checkAllDims(t, s, at, fmt.Sprintf("trial %d step %d", trial, step))
				// A no-op rebuild a little later.
				checkAllDims(t, s, at+time.Minute, fmt.Sprintf("trial %d step %d +1m", trial, step))
			}
			// Builds strictly after the last event, far enough ahead that the
			// whole window drains.
			checkAllDims(t, s, now+time.Hour, fmt.Sprintf("trial %d post", trial))
			checkAllDims(t, s, now+48*time.Hour, fmt.Sprintf("trial %d drained", trial))
		}
	})
}

// TestIncrementalExpiryWithoutEvents pins the pure-time invalidation path:
// rows must change when evaluations expire even though no event arrives
// between builds.
func TestIncrementalExpiryWithoutEvents(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cfg := DefaultConfig()
		cfg.Window = time.Hour
		s := mustSharded(t, 4, k, cfg)
		if err := s.Vote(0, "f", 0.9, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Vote(1, "f", 0.8, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Vote(2, "f", 0.7, 30*time.Minute); err != nil {
			t.Fatal(err)
		}
		if checkAllDims(t, s, 0, "fresh").NNZ() == 0 {
			t.Fatal("no TM entries while evaluations are live")
		}
		// 0 and 1 expire at t > 1h; 2 survives until t > 1h30m.
		checkAllDims(t, s, 61*time.Minute, "partial expiry")
		if checkAllDims(t, s, 2*time.Hour, "full expiry").NNZ() != 0 {
			t.Fatal("TM entries survived the window")
		}
	})
}

// TestIncrementalTimeBackwards pins the full-invalidation path: building
// at an earlier time than the previous build must still agree with the
// reference (liveness is evaluated at build time).
func TestIncrementalTimeBackwards(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cfg := DefaultConfig()
		cfg.Window = time.Hour
		s := mustSharded(t, 3, k, cfg)
		if err := s.Vote(0, "f", 0.9, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Vote(1, "f", 0.4, 50*time.Minute); err != nil {
			t.Fatal(err)
		}
		checkAllDims(t, s, 100*time.Minute, "late") // vote at 0 has expired
		if checkAllDims(t, s, 10*time.Minute, "early").NNZ() == 0 {
			t.Fatal("rewound build lost the early evaluation")
		}
	})
}

// TestIncrementalCompactionInvalidates pins compaction dirtying: compact
// at a late time removes records outright, which must invalidate builds at
// earlier times too (the record would have been live there).
func TestIncrementalCompactionInvalidates(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cfg := DefaultConfig()
		cfg.Window = time.Hour
		s := mustSharded(t, 3, k, cfg)
		if err := s.Vote(0, "f", 0.9, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Vote(1, "f", 0.5, 0); err != nil {
			t.Fatal(err)
		}
		checkAllDims(t, s, 0, "before compact")
		s.Compact(2 * time.Hour) // drops both votes
		if checkAllDims(t, s, 0, "after compact").NNZ() != 0 {
			t.Fatal("compacted records still contribute at an earlier build time")
		}
	})
}

// TestCachedTM pins the read-path cache contract: a hit returns the exact
// frozen matrix of the last build, and any event or time change with a
// live window misses; a rebuild that recomputed rows advances the epoch.
func TestCachedTM(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cfg := DefaultConfig()
		cfg.Window = time.Hour
		s := mustSharded(t, 3, k, cfg)
		if _, ok := s.cachedTM(0); ok {
			t.Fatal("cache hit before any build")
		}
		if err := s.Vote(0, "f", 0.9, 0); err != nil {
			t.Fatal(err)
		}
		tm := checkAllDims(t, s, 0, "built")
		got, ok := s.cachedTM(0)
		if !ok || got != tm {
			t.Fatal("cache miss immediately after build")
		}
		if _, ok := s.cachedTM(time.Minute); ok {
			t.Fatal("cache hit at a different time with a live window")
		}
		if err := s.Vote(1, "f", 0.4, 0); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.cachedTM(0); ok {
			t.Fatal("cache hit after an event dirtied rows")
		}
		epoch := s.Epoch()
		checkAllDims(t, s, 0, "rebuilt")
		if s.Epoch() == epoch {
			t.Fatal("epoch did not advance on a changed rebuild")
		}
	})
}

// TestCachedTMWindowless pins the Window == 0 fast path: with no expiry
// the matrices are time-independent, so the cached TM is returned at any
// now.
func TestCachedTMWindowless(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cfg := DefaultConfig()
		cfg.Window = 0
		s := mustSharded(t, 3, k, cfg)
		if err := s.Vote(0, "f", 0.9, 0); err != nil {
			t.Fatal(err)
		}
		tm := checkAllDims(t, s, 0, "built")
		got, err := s.TM(5 * time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if got != tm || s.lastNow != 0 {
			t.Fatal("windowless cache missed at a different time")
		}
	})
}

// TestBuildTMStableAcrossNoOpRebuilds: a rebuild that finds nothing to
// recompute returns the identical *sparse.CSR and keeps the epoch fixed.
func TestBuildTMStableAcrossNoOpRebuilds(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		s := mustSharded(t, 4, k, DefaultConfig())
		if err := s.Vote(0, "f", 0.9, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Vote(1, "f", 0.7, 0); err != nil {
			t.Fatal(err)
		}
		tm1 := checkAllDims(t, s, 0, "first")
		epoch := s.Epoch()
		// A later time misses the cache (the window is live) but expires
		// nothing, so the rebuild has no dirty row.
		tm2 := checkAllDims(t, s, time.Minute, "no-op")
		if s.lastNow != time.Minute {
			t.Fatal("no rebuild ran")
		}
		if tm1 != tm2 {
			t.Fatal("no-op rebuild allocated a new TM")
		}
		if s.Epoch() != epoch {
			t.Fatal("no-op rebuild advanced the epoch")
		}
	})
}

// TestHeldTMUnchangedByPatches: a TM a reader holds stays byte-unchanged
// while later events patch the engine's TM, so the lock-free read path
// may walk it at any time.
func TestHeldTMUnchangedByPatches(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		const n = 12
		cfg := DefaultConfig()
		cfg.Window = 2 * time.Hour
		s := mustSharded(t, n, k, cfg)
		r := sim.NewRNG(227)
		now := time.Duration(0)
		for step := 0; step < 30; step++ {
			applyRandomEvent(t, s, r, n, now)
		}
		held := checkAllDims(t, s, now, "held")
		want := csrBytes(t, held)
		for step := 0; step < 60; step++ {
			now += time.Duration(r.Intn(10)) * time.Minute
			applyRandomEvent(t, s, r, n, now)
			if step%4 == 0 {
				checkAllDims(t, s, now, fmt.Sprintf("patch %d", step))
				if csrBytes(t, held) != want {
					t.Fatalf("step %d: a later patch changed a held TM", step)
				}
			}
		}
	})
}

// TestPatchGOMAXPROCSInvariance: a batch that dirties more than 128 TM
// rows takes the patch kernel's parallel path, whose bytes must not
// depend on GOMAXPROCS.
func TestPatchGOMAXPROCSInvariance(t *testing.T) {
	const n = 400
	forShards(t, func(t *testing.T, k int) {
		var got []string
		for _, procs := range []int{1, 4} {
			old := runtime.GOMAXPROCS(procs)
			reg := metrics.NewRegistry()
			s := mustSharded(t, n, k, DefaultConfig())
			s.SetObserver(NewEngineObs(reg, nil))
			if err := s.ApplyBatch(scriptEvents(n, 2, 5)); err != nil {
				t.Fatal(err)
			}
			checkAllDims(t, s, 2*time.Hour, "full")
			um := reg.Counter("engine_dirty_rows_total", "dim", "um")
			before := um.Load()
			var batch []Event
			for i := 0; i < 200; i++ {
				batch = append(batch, Event{Kind: EventRateUser, I: i, J: (i + 1) % n, Value: 0.25})
			}
			if err := s.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			tm := checkAllDims(t, s, 2*time.Hour, "patched")
			runtime.GOMAXPROCS(old)
			if d := um.Load() - before; d <= 128 {
				t.Fatalf("batch dirtied %d rows, want more than one 128-row block", d)
			}
			got = append(got, csrBytes(t, tm))
		}
		if got[0] != got[1] {
			t.Fatal("patched TM differs between GOMAXPROCS 1 and 4")
		}
	})
}

// TestRestoredEngineMatchesOriginal: an engine restored from exported
// shard states, and the original after restoring its own states over
// warm caches, produce the reference matrices (the journal snapshot
// contract), as does an Engine rebuilt from the exported state.
func TestRestoredEngineMatchesOriginal(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		rng := sim.NewRNG(223)
		cfg := DefaultConfig()
		cfg.Window = 45 * time.Minute
		s := mustSharded(t, 8, k, cfg)
		now := time.Duration(0)
		for step := 0; step < 80; step++ {
			now += time.Duration(rng.Intn(5)) * time.Minute
			applyRandomEvent(t, s, rng, 8, now)
		}
		// Build mid-stream so the original's rows are warm (the restored
		// engine starts cold — the comparison crosses cache states).
		checkAllDims(t, s, now, "original")
		restored := mustSharded(t, 8, k, cfg)
		for si := 0; si < k; si++ {
			st, err := s.ExportShardState(si)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.RestoreShard(si, st); err != nil {
				t.Fatal(err)
			}
			if err := s.RestoreShard(si, st); err != nil {
				t.Fatal(err)
			}
		}
		bare, err := NewEngineFromState(s.ExportState(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []time.Duration{now, now + 30*time.Minute, now + 3*time.Hour} {
			label := fmt.Sprintf("restore at %v", at)
			want := csrBytes(t, checkAllDims(t, s, at, label+"/original"))
			if csrBytes(t, checkAllDims(t, restored, at, label)) != want {
				t.Fatalf("%s: restored TM differs from the original's", label)
			}
			tm, err := bare.BuildTM(at)
			if err != nil {
				t.Fatal(err)
			}
			if csrBytes(t, tm) != want {
				t.Fatalf("%s: Engine from exported state differs", label)
			}
		}
	})
}
