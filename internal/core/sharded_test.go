package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/sim"
)

// scriptEvents generates a deterministic, seeded event log covering
// every event kind (including mid-stream compactions) for n peers over
// rounds virtual hours.
func scriptEvents(n, rounds int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	files := make([]string, 12)
	for i := range files {
		files[i] = fmt.Sprintf("file-%02d", i)
	}
	var evs []Event
	for r := 0; r < rounds; r++ {
		now := time.Duration(r) * time.Hour
		for step := 0; step < 3*n; step++ {
			i := rng.Intn(n)
			j := rng.Intn(n)
			f := files[rng.Intn(len(files))]
			switch rng.Intn(6) {
			case 0:
				evs = append(evs, Event{Kind: EventVote, I: i, File: eval.FileID(f), Value: rng.Float64(), Time: now})
			case 1:
				evs = append(evs, Event{Kind: EventSetImplicit, I: i, File: eval.FileID(f), Value: rng.Float64(), Time: now})
			case 2:
				if i != j {
					evs = append(evs, Event{Kind: EventDownload, I: i, J: j, File: eval.FileID(f), Size: int64(rng.Intn(1 << 20)), Time: now})
				}
			case 3:
				if i != j {
					evs = append(evs, Event{Kind: EventRateUser, I: i, J: j, Value: rng.Float64()})
				}
			case 4:
				if rng.Intn(8) == 0 {
					evs = append(evs, Event{Kind: EventBlacklist, I: i, J: j})
				}
			case 5:
				if rng.Intn(3*n) == 0 {
					evs = append(evs, Event{Kind: EventCompact, Time: now})
				}
			}
		}
	}
	return evs
}

func marshalState(t *testing.T, st *EngineState) []byte {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func csrBytes(t *testing.T, c interface {
	N() int
	Row(i int) ([]int32, []float64)
}) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Cols [][]int32
		Vals [][]float64
	}{
		Cols: func() [][]int32 {
			out := make([][]int32, c.N())
			for i := range out {
				out[i], _ = c.Row(i)
			}
			return out
		}(),
		Vals: func() [][]float64 {
			out := make([][]float64, c.N())
			for i := range out {
				_, out[i] = c.Row(i)
			}
			return out
		}(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestShardCountInvariance is the acceptance property of the sharded
// refactor: an identical event log applied through K ∈ {1, 2, 8} shards
// (mixing per-event and batched group-commit ingest) produces
// field-for-field, bit-identical ExportState and byte-identical frozen
// TM versus the unsharded seed Engine.
func TestShardCountInvariance(t *testing.T) {
	const n = 40
	cfg := DefaultConfig()
	cfg.Window = 3 * time.Hour
	evs := scriptEvents(n, 6, 42)
	final := 6 * time.Hour

	seed := mustEngine(t, n, cfg)
	for _, ev := range evs {
		if err := seed.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	wantState := marshalState(t, seed.ExportState())
	wantTM, err := seed.BuildTM(final)
	if err != nil {
		t.Fatal(err)
	}
	wantTMBytes := csrBytes(t, wantTM)
	wantRep, err := seed.Reputations(0, final)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 2, 8} {
		for _, batched := range []bool{false, true} {
			name := fmt.Sprintf("k=%d/batched=%v", k, batched)
			s, err := NewSharded(n, k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if batched {
				// Group-commit in chunks, interleaved with reads so
				// incremental dirty tracking is exercised, not just one
				// cold build.
				for off := 0; off < len(evs); off += 64 {
					end := off + 64
					if end > len(evs) {
						end = len(evs)
					}
					if err := s.ApplyBatch(evs[off:end]); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if off%(64*5) == 0 {
						if _, err := s.TM(evs[off].Time); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
				}
			} else {
				for _, ev := range evs {
					if err := s.ApplyEvent(ev); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
			if got := marshalState(t, s.ExportState()); string(got) != string(wantState) {
				t.Fatalf("%s: ExportState differs from unsharded engine", name)
			}
			tm, err := s.TM(final)
			if err != nil {
				t.Fatal(err)
			}
			if got := csrBytes(t, tm); got != wantTMBytes {
				t.Fatalf("%s: frozen TM differs from unsharded engine", name)
			}
			rep, err := s.Reputations(0, final)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep) != len(wantRep) {
				t.Fatalf("%s: reputation row size %d, want %d", name, len(rep), len(wantRep))
			}
			for j, v := range wantRep {
				if rep[j] != v {
					t.Fatalf("%s: reputation[%d] = %v, want bit-identical %v", name, j, rep[j], v)
				}
			}
		}
	}
}

// TestShardedIncrementalMatchesRebuild interleaves events, time
// advancement, expiry and compaction with TM builds at K = 4, checking
// each incremental build and its row store against the map reference
// builders fed the same prefix — the four-shard companion of
// incremental_test.go.
func TestShardedIncrementalMatchesRebuild(t *testing.T) {
	const n = 24
	cfg := DefaultConfig()
	cfg.Window = 2 * time.Hour
	evs := scriptEvents(n, 8, 7)
	s, err := NewSharded(n, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for idx, ev := range evs {
		if err := s.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
		if idx%97 != 0 {
			continue
		}
		now := ev.Time + time.Duration(idx%3)*time.Hour
		checkAllDims(t, s, now, fmt.Sprintf("event %d", idx))
	}
}

// TestShardedApplyBatchContract checks the group-commit batch contract
// at K = 1 and K = 4: a batch leaves the engine in exactly the state of
// the same events applied one by one, and a batch holding an invalid
// event reports its index and applies nothing (all-or-report).
func TestShardedApplyBatchContract(t *testing.T) {
	const n = 8
	good := []Event{
		{Kind: EventDownload, I: 0, J: 1, File: "f1", Size: 1 << 10, Time: time.Second},
		{Kind: EventVote, I: 0, File: "f1", Value: 0.9, Time: 2 * time.Second},
		{Kind: EventRateUser, I: 0, J: 1, Value: 0.8},
		{Kind: EventDownload, I: 2, J: 1, File: "f1", Size: 1 << 11, Time: 3 * time.Second},
		{Kind: EventVote, I: 2, File: "f1", Value: 0.7, Time: 4 * time.Second},
	}
	bad := map[string][]Event{
		"out-of-range": {
			{Kind: EventRateUser, I: 0, J: 1, Value: 0.5},
			{Kind: EventRateUser, I: 99, J: 1, Value: 0.5},
			{Kind: EventRateUser, I: 2, J: 1, Value: 0.5},
		},
		"self-download": {
			{Kind: EventRateUser, I: 0, J: 1, Value: 0.5},
			{Kind: EventDownload, I: 3, J: 3, File: "f"},
		},
	}
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			mk := func() *Sharded {
				s, err := NewSharded(n, k, DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			batched, single := mk(), mk()
			if err := batched.ApplyBatch(good); err != nil {
				t.Fatal(err)
			}
			for _, ev := range good {
				if err := single.ApplyEvent(ev); err != nil {
					t.Fatal(err)
				}
			}
			now := 5 * time.Second
			rb, err := batched.Reputations(0, now)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := single.Reputations(0, now)
			if err != nil {
				t.Fatal(err)
			}
			if len(rb) != len(rs) {
				t.Fatalf("reputation map sizes differ: %d vs %d", len(rb), len(rs))
			}
			for j, v := range rs {
				if rb[j] != v {
					t.Fatalf("reputation[%d] = %v batched vs %v single", j, rb[j], v)
				}
			}

			for name, evs := range bad {
				s := mk()
				err := s.ApplyBatch(evs)
				var be *BatchError
				if !errors.As(err, &be) || be.Index != 1 {
					t.Fatalf("%s: err = %v, want BatchError at index 1", name, err)
				}
				if !strings.Contains(err.Error(), "batch event 1") {
					t.Fatalf("%s: error %q does not name the failing index", name, err)
				}
				for i, ut := range s.ExportState().UserTrust {
					if len(ut) != 0 {
						t.Fatalf("%s: peer %d mutated by failed batch", name, i)
					}
				}
			}
		})
	}
}

// TestShardedValidation covers the facade's own error paths.
func TestShardedValidation(t *testing.T) {
	if _, err := NewSharded(4, 0, DefaultConfig()); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewSharded(4, MaxShards+1, DefaultConfig()); err == nil {
		t.Fatal("k>MaxShards accepted")
	}
	s, err := NewSharded(8, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyEvent(Event{Kind: EventVote, I: 99, File: "f"}); err == nil {
		t.Fatal("out-of-range peer accepted")
	}
	wrong := 1 - s.ShardOf(0)
	if err := s.ApplyShard(wrong, Event{Kind: EventVote, I: 0, File: "f"}); err == nil {
		t.Fatal("event replayed into the wrong shard accepted")
	}
	if err := s.ApplyShard(5, Event{Kind: EventVote, I: 0, File: "f"}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestShardedHammer drives a sharded engine at K = 1 (every System's
// default) and K = 8 with racing mutators and readers; run under -race
// it is the concurrency proof of the lock ordering in the type comment.
// Writers mix group-commit batches, per-event calls of every kind and
// compactions. Readers mix reputation queries, TM fetches walked
// outside the lock, owner collection feeding judgements, evaluations
// and exports, at virtual times that move backwards as well as forwards.
func TestShardedHammer(t *testing.T) {
	const n = 32
	cfg := DefaultConfig()
	cfg.Window = time.Hour
	for _, k := range []int{1, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			s, err := NewSharded(n, k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 64)
			report := func(err error) {
				if err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}

			// Batch writers.
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					evs := scriptEvents(n, 3, int64(100+w))
					for off := 0; off < len(evs); off += 16 {
						report(s.ApplyBatch(evs[off:min(off+16, len(evs))]))
					}
				}(w)
			}
			// Per-event writers, compacting every fifth step.
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := sim.NewRNG(uint64(1000 + w))
					for step := 0; step < 300; step++ {
						i, j := r.Intn(n), r.Intn(n)
						fid := eval.FileID(fmt.Sprintf("file-%02d", r.Intn(12)))
						now := time.Duration(step) * 30 * time.Second
						switch step % 5 {
						case 0:
							report(s.Vote(i, fid, r.Float64(), now))
						case 1:
							report(s.SetImplicit(i, fid, r.Float64(), now))
						case 2:
							if i != j {
								report(s.RecordDownload(i, j, fid, 1<<10, now))
							}
						case 3:
							if i != j {
								report(s.RateUser(i, j, r.Float64()))
							}
						case 4:
							s.Compact(now)
						}
					}
				}(w)
			}
			// Readers at random virtual times in [0, 4h).
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := sim.NewRNG(uint64(2000 + w))
					for step := 0; step < 100; step++ {
						now := time.Duration(r.Intn(240)) * time.Minute
						fid := eval.FileID(fmt.Sprintf("file-%02d", r.Intn(12)))
						switch step % 5 {
						case 0:
							_, err := s.Reputations(r.Intn(n), now)
							report(err)
						case 1:
							tm, err := s.TM(now)
							report(err)
							if tm != nil {
								_, err = s.ReputationsFromTM(tm, r.Intn(n))
								report(err)
							}
						case 2:
							owners := s.CollectOwnerEvaluations(fid, []int{0, 5, 9, 17}, now)
							_, err := s.JudgeFile(r.Intn(n), owners, now)
							report(err)
						case 3:
							if st := s.ExportState(); st.N != n {
								report(fmt.Errorf("export saw population %d", st.N))
							}
						case 4:
							_, _ = s.Evaluation(r.Intn(n), fid, now)
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if _, err := s.TM(4 * time.Hour); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardSnapshotRoundTrip exports every shard, restores each into a
// fresh sharded engine (in reverse order, proving order independence)
// and checks bit-identical state and TM.
func TestShardSnapshotRoundTrip(t *testing.T) {
	const n, k = 30, 4
	cfg := DefaultConfig()
	cfg.Window = 3 * time.Hour
	s, err := NewSharded(n, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch(scriptEvents(n, 5, 11)); err != nil {
		t.Fatal(err)
	}
	want := marshalState(t, s.ExportState())

	fresh, err := NewSharded(n, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for si := k - 1; si >= 0; si-- {
		st, err := s.ExportShardState(si)
		if err != nil {
			t.Fatal(err)
		}
		// Round-trip through JSON, as the journal snapshot path does.
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back ShardState
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreShard(si, &back); err != nil {
			t.Fatal(err)
		}
	}
	if got := marshalState(t, fresh.ExportState()); string(got) != string(want) {
		t.Fatal("restored state differs from exported state")
	}
	now := 5 * time.Hour
	a, err := s.TM(now)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.TM(now)
	if err != nil {
		t.Fatal(err)
	}
	if csrBytes(t, a) != csrBytes(t, b) {
		t.Fatal("restored TM differs")
	}

	// Restore guards: wrong shard index and unowned peers are rejected.
	st, err := s.ExportShardState(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreShard(1, st); err == nil {
		t.Fatal("snapshot restored into the wrong shard")
	}
}

// TestShardIndexStability pins the router: the owner of a peer must
// never change across releases, or per-shard journals become
// unreadable.
func TestShardIndexStability(t *testing.T) {
	want := map[[2]int]int{
		{0, 8}:      ShardIndex(0, 8),
		{1, 8}:      ShardIndex(1, 8),
		{999999, 8}: ShardIndex(999999, 8),
	}
	for in, out := range want {
		if out < 0 || out >= in[1] {
			t.Fatalf("ShardIndex(%d, %d) = %d out of range", in[0], in[1], out)
		}
	}
	// Distribution sanity: no shard owns more than twice its fair share
	// at n=10000, k=8.
	counts := make([]int, 8)
	for p := 0; p < 10000; p++ {
		counts[ShardIndex(p, 8)]++
	}
	for si, c := range counts {
		if c > 2*10000/8 || c < 10000/8/2 {
			t.Fatalf("shard %d owns %d of 10000 peers — hash is striping", si, c)
		}
	}
}

// TestShardedPairScratchesPerWorker: a rebuild drains K shards on
// min(K, GOMAXPROCS) workers and keeps one FM pair scratch per worker,
// not per shard. At K = 8 and GOMAXPROCS 2 at most two scratches are
// held between rebuilds; when GOMAXPROCS rises and falls again the kept
// scratches follow it; TM keeps the bits of K = 1 throughout.
func TestShardedPairScratchesPerWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n, k = 40, 8
	evs := scriptEvents(n, 6, 11)
	ref, err := NewSharded(n, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(n, k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for step, procs := range []int{2, 8, 2} {
		runtime.GOMAXPROCS(procs)
		part := evs[step*len(evs)/3 : (step+1)*len(evs)/3]
		for _, e := range []*Sharded{ref, s} {
			if err := e.ApplyBatch(part); err != nil {
				t.Fatal(err)
			}
		}
		now := part[len(part)-1].Time
		want, err := ref.TM(now)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.TM(now)
		if err != nil {
			t.Fatal(err)
		}
		if csrBytes(t, got) != csrBytes(t, want) {
			t.Fatalf("step %d: TM at K = %d differs from K = 1", step, k)
		}
		kept := 0
		for _, sc := range s.pairs {
			if sc != nil {
				kept++
			}
		}
		if limit := min(k, procs); len(s.pairs) > limit || kept == 0 {
			t.Fatalf("step %d, GOMAXPROCS %d: %d scratch slots, %d kept; want 1 to %d", step, procs, len(s.pairs), kept, limit)
		}
	}
}
