package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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

// mustMatchRef fails unless have equals the reference entries want
// exactly.
func mustMatchRef(t *testing.T, label string, want, have []sparse.Entry) {
	t.Helper()
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
	mustMatchRef(t, label+"/FM", refEntries(s.eng.buildFMRef(now)), rowEntries(s.dims[dimFM]))
	mustMatchRef(t, label+"/DM", refEntries(s.eng.buildDMRef(now)), rowEntries(s.dims[dimDM]))
	mustMatchRef(t, label+"/UM", refEntries(s.eng.buildUMRef()), rowEntries(s.dims[dimUM]))
	mustMatchRef(t, label+"/TM", refEntries(s.eng.buildTMRef(now)), tm.Entries())
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
		// Ingest-shaped trials: 200 peers evaluating 4 of 200 files each,
		// then small batches at 1 s steps, so most files go untouched
		// between builds and their kept lists are reused; the window
		// expires the preload mid-run. One run caps the evaluators.
		for _, maxEval := range []int{0, 3} {
			const n, files, steps = 200, 200, 40
			r := rng.DeriveStream(fmt.Sprintf("ingest-%d", maxEval))
			cfg := DefaultConfig()
			cfg.Window = 20 * time.Second
			cfg.MaxEvaluatorsPerFile = maxEval
			s := mustSharded(t, n, k, cfg)
			lib := newIngestLibrary(r, n, files)
			if err := s.ApplyBatch(lib.preload(r, 0)); err != nil {
				t.Fatal(err)
			}
			checkAllDims(t, s, 0, fmt.Sprintf("ingest cap %d preload", maxEval))
			before := derivedLists(s)
			for step := 1; step <= steps; step++ {
				now := time.Duration(step) * time.Second
				if err := s.ApplyBatch(lib.batch(r, 16, now)); err != nil {
					t.Fatal(err)
				}
				checkAllDims(t, s, now, fmt.Sprintf("ingest cap %d step %d", maxEval, step))
			}
			if d := derivedLists(s) - before; d >= steps*files/2 {
				t.Fatalf("ingest cap %d: %d lists derived over %d builds of %d files, want most reused", maxEval, d, steps, files)
			}
		}
	})
}

// ingestLibrary is the evidence shape of durable ingest: every peer
// evaluates 4 files of a shared library, and batches revisit those
// evaluations and 2 rated peers each.
type ingestLibrary struct {
	files []eval.FileID
	lib   [][]int // library files each peer evaluates, distinct
	rated [][]int // peers each peer rates
}

func newIngestLibrary(r *sim.RNG, n, files int) *ingestLibrary {
	l := &ingestLibrary{files: make([]eval.FileID, files), lib: make([][]int, n), rated: make([][]int, n)}
	for f := range l.files {
		l.files[f] = eval.FileID(fmt.Sprintf("lib-%03d", f))
	}
	for p := 0; p < n; p++ {
		for len(l.lib[p]) < 4 {
			if f := r.Intn(files); !slices.Contains(l.lib[p], f) {
				l.lib[p] = append(l.lib[p], f)
			}
		}
		for len(l.rated[p]) < 2 {
			if q := r.Intn(n); q != p {
				l.rated[p] = append(l.rated[p], q)
			}
		}
	}
	return l
}

// preload evaluates every peer's library at t, alternately by vote and
// implicitly, with 2 downloads from other peers and the 2 ratings.
func (l *ingestLibrary) preload(r *sim.RNG, t time.Duration) []Event {
	var evs []Event
	for p, fs := range l.lib {
		for k, f := range fs {
			kind := EventVote
			if k%2 == 1 {
				kind = EventSetImplicit
			}
			evs = append(evs, Event{Kind: kind, I: p, File: l.files[f], Value: r.Float64(), Time: t})
		}
		for k := 0; k < 2; k++ {
			up := (p + 1 + r.Intn(len(l.lib)-1)) % len(l.lib)
			evs = append(evs, Event{Kind: EventDownload, I: p, J: up, File: l.files[fs[k]], Size: 1 << 20, Time: t})
		}
		for _, q := range l.rated[p] {
			evs = append(evs, Event{Kind: EventRateUser, I: p, J: q, Value: r.Float64()})
		}
	}
	return evs
}

// batch returns m events at t on the library: 70% votes, 20% implicit
// evaluations, 10% ratings.
func (l *ingestLibrary) batch(r *sim.RNG, m int, t time.Duration) []Event {
	evs := make([]Event, 0, m)
	for len(evs) < m {
		p := r.Intn(len(l.lib))
		f := l.files[l.lib[p][r.Intn(4)]]
		switch x := r.Float64(); {
		case x < 0.7:
			evs = append(evs, Event{Kind: EventVote, I: p, File: f, Value: r.Float64(), Time: t})
		case x < 0.9:
			evs = append(evs, Event{Kind: EventSetImplicit, I: p, File: f, Value: r.Float64(), Time: t})
		default:
			evs = append(evs, Event{Kind: EventRateUser, I: p, J: l.rated[p][r.Intn(2)], Value: r.Float64()})
		}
	}
	return evs
}

// derivedLists returns how many evaluator lists s has derived.
func derivedLists(s *Sharded) int {
	x := s.eng.evaluators
	total := 0
	for i := range x.stripes {
		st := &x.stripes[i]
		st.mu.Lock()
		total += st.derived
		st.mu.Unlock()
	}
	return total
}

// liveFiles returns the files in want with a live evaluation at now.
func liveFiles(s *Sharded, want map[eval.FileID]bool, now time.Duration) map[eval.FileID]bool {
	out := make(map[eval.FileID]bool)
	for _, st := range s.eng.stores {
		for _, f := range st.AppendFiles(nil, now) {
			if want == nil || want[f] {
				out[f] = true
			}
		}
	}
	return out
}

// TestIncrementalFileListContract pins when a rebuild derives a file's
// live-evaluator list: at most once per rebuild, only for files that
// had an evaluation event or an expiry since the last rebuild, and only
// when some dirty row reads it, so a file whose last live evaluation
// expired is not derived. A rewind and a RestoreShard derive every file
// a row reads. Each build is also checked against the references.
func TestIncrementalFileListContract(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			forShards(t, testFileListContract)
		})
	}
}

func testFileListContract(t *testing.T, k int) {
	const n, files = 120, 120
	r := sim.NewRNG(229)
	cfg := DefaultConfig()
	cfg.Window = time.Minute
	s := mustSharded(t, n, k, cfg)
	lib := newIngestLibrary(r, n, files)
	// derives builds at now and fails unless the build derived exactly
	// the lists of want.
	derives := func(now time.Duration, want map[eval.FileID]bool, label string) {
		t.Helper()
		before := derivedLists(s)
		checkAllDims(t, s, now, label)
		if got := derivedLists(s) - before; got != len(want) {
			t.Fatalf("%s: derived %d lists, want %d", label, got, len(want))
		}
	}
	// named returns the files the evaluation events of evs name.
	named := func(evs []Event) map[eval.FileID]bool {
		out := make(map[eval.FileID]bool)
		for _, ev := range evs {
			if ev.Kind == EventVote || ev.Kind == EventSetImplicit {
				out[ev.File] = true
			}
		}
		return out
	}

	if err := s.ApplyBatch(lib.preload(r, 0)); err != nil {
		t.Fatal(err)
	}
	derives(0, liveFiles(s, nil, 0), "first build")

	// An ingest-shaped batch with no expiry derives exactly the files
	// its votes and implicit evaluations name.
	batch := lib.batch(r, 64, time.Second)
	if err := s.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	renewed := named(batch)
	if len(renewed) == 0 || len(renewed) >= files/2 {
		t.Fatalf("batch names %d files; the contract needs a minority", len(renewed))
	}
	derives(time.Second, renewed, "ingest batch")

	// Ratings and downloads dirty UM and DM rows only.
	var quiet []Event
	for p := 0; p < n; p += 7 {
		q := lib.rated[p][0]
		quiet = append(quiet,
			Event{Kind: EventRateUser, I: p, J: q, Value: 0.5},
			Event{Kind: EventDownload, I: p, J: q, File: lib.files[lib.lib[p][0]], Size: 1 << 10, Time: 2 * time.Second})
	}
	if err := s.ApplyBatch(quiet); err != nil {
		t.Fatal(err)
	}
	derives(2*time.Second, nil, "ratings and downloads")

	// The preload expires at 61 s and the batch's evaluations live on:
	// of the files with an expiry, only those that keep a live
	// evaluation are derived.
	expiry := 61 * time.Second
	expired := make(map[eval.FileID]bool)
	for _, st := range s.eng.stores {
		for _, f := range st.ExpiredBetween(2*time.Second, expiry) {
			expired[f] = true
		}
	}
	kept := liveFiles(s, expired, expiry)
	for f := range kept {
		if !renewed[f] {
			t.Fatalf("file %s is live at %v without a renewal", f, expiry)
		}
	}
	if len(kept) == 0 || len(kept) == len(expired) {
		t.Fatalf("%d of %d files with an expiry stay live; want some but not all", len(kept), len(expired))
	}
	derives(expiry, kept, "expiry")
	derives(expiry+time.Second, nil, "no change")

	// A rewind and a restore derive every file a row reads.
	derives(30*time.Second, liveFiles(s, nil, 30*time.Second), "rewind")
	for si := 0; si < k; si++ {
		st, err := s.ExportShardState(si)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RestoreShard(si, st); err != nil {
			t.Fatal(err)
		}
	}
	derives(30*time.Second, liveFiles(s, nil, 30*time.Second), "restore")
}

// TestEvalIndexDropsChangedLists: the index drops a file's list itself
// when the file's evaluator set changes, by add or by prune, whatever
// its callers drop.
func TestEvalIndexDropsChangedLists(t *testing.T) {
	x := newEvalIndex()
	derived := 0
	read := func() []int {
		return x.list("f", func(peers map[int]struct{}, dst *fileEvaluators) {
			derived++
			dst.peers = dst.peers[:0]
			for p := range peers {
				dst.peers = append(dst.peers, p)
			}
			slices.Sort(dst.peers)
		}).peers
	}
	x.add("f", 1)
	read()
	if got := read(); !slices.Equal(got, []int{1}) || derived != 1 {
		t.Fatalf("fresh list %v after %d derivations, want [1] after 1", got, derived)
	}
	x.add("f", 2)
	if got := read(); !slices.Equal(got, []int{1, 2}) || derived != 2 {
		t.Fatalf("list %v after add and %d derivations, want [1 2] after 2", got, derived)
	}
	x.prune(nil, func(p int, _ eval.FileID) bool { return p == 1 })
	if got := read(); !slices.Equal(got, []int{2}) || derived != 3 {
		t.Fatalf("list %v after prune and %d derivations, want [2] after 3", got, derived)
	}
}

// TestPairScratchGenerationWrap: a kept pair scratch's uint32
// generation wraps after 2³² rows. Rows computed across the wrap, from
// a fresh scratch and from one whose stamps hold generation 1, must
// equal the rows of a first build.
func TestPairScratchGenerationWrap(t *testing.T) {
	const n = 6
	s := mustSharded(t, n, 1, fmOnlyConfig())
	for p := 0; p < n; p++ {
		for k, f := range []eval.FileID{"a", "b", "c"} {
			if err := s.Vote(p, f, float64((p*5+k*3)%7)/7, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.TM(0); err != nil {
		t.Fatal(err)
	}
	want, e := s.dims[dimFM], s.eng
	for _, warm := range []bool{false, true} {
		sc := newPairScratch(n)
		if warm {
			e.fmRow(0, 0, sc) // stamps row 0's co-evaluators with generation 1
		}
		sc.gen = math.MaxUint32
		for i := range want {
			got := e.fmRow(i, 0, sc)
			if len(got.Cols) == 0 || !slices.Equal(got.Cols, want[i].Cols) || !slices.Equal(got.Vals, want[i].Vals) {
				t.Fatalf("warm=%v: row %d across the wrap = %v, want %v", warm, i, got, want[i])
			}
		}
		if sc.gen != n {
			t.Fatalf("warm=%v: generation %d after %d rows from the wrap, want %d", warm, sc.gen, n, n)
		}
	}
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
// live window misses; a rebuild that recomputed rows patches a new TM.
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
		if checkAllDims(t, s, 0, "rebuilt") == tm {
			t.Fatal("a rebuild that recomputed rows kept the old TM")
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
// recompute returns the identical *sparse.CSR.
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
		// A later time misses the cache (the window is live) but expires
		// nothing, so the rebuild has no dirty row.
		tm2 := checkAllDims(t, s, time.Minute, "no-op")
		if s.lastNow != time.Minute {
			t.Fatal("no rebuild ran")
		}
		if tm1 != tm2 {
			t.Fatal("no-op rebuild allocated a new TM")
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
// contract) and the same TM bits.
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
		for _, at := range []time.Duration{now, now + 30*time.Minute, now + 3*time.Hour} {
			label := fmt.Sprintf("restore at %v", at)
			want := csrBytes(t, checkAllDims(t, s, at, label+"/original"))
			if csrBytes(t, checkAllDims(t, restored, at, label)) != want {
				t.Fatalf("%s: restored TM differs from the original's", label)
			}
		}
	})
}
