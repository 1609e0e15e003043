package walk

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mdrep/internal/obs"
	"mdrep/internal/sim"
)

// estimatePin is the FNV-64a digest of pinSweep, computed by the
// estimator that stepped every walk through its own RowSource.Row calls.
// Any later estimator must reproduce it bit for bit: the walks, their
// RNG draws and the per-entry division by W are the contract, not the
// way rows are fetched.
const estimatePin = "b09d6c82784a6edd"

// pinSweep hashes a fixed sweep of estimates — three seeded graphs,
// three source users each, walk counts on both sides of walkBlock and
// depths 1, 3 and 5 — by configuration, then ascending column and float
// bits.
func pinSweep(t *testing.T) string {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	for g, n := range []int{200, 500, 2000} {
		tm, err := RandomTM(n, uint64(g+1))
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewLocalSource(tm)
		if err != nil {
			t.Fatal(err)
		}
		for _, source := range []int{0, 7, n - 1} {
			for _, walks := range []int{100, 1000, 4000} {
				for _, depth := range []int{1, 3, 5} {
					est, err := New(src, Config{Walks: walks, Depth: depth, Seed: uint64(walks + depth + g)})
					if err != nil {
						t.Fatal(err)
					}
					got, err := est.Estimate(source)
					if err != nil {
						t.Fatal(err)
					}
					put(uint64(n))
					put(uint64(source))
					put(uint64(walks))
					put(uint64(depth))
					for _, j := range sortedKeys(got) {
						put(uint64(j))
						put(math.Float64bits(got[j]))
					}
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestEstimateBitsPinned holds every estimate of pinSweep to the digest
// the per-walk estimator produced, at one CPU and at several.
func TestEstimateBitsPinned(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		if got := pinSweep(t); got != estimatePin {
			t.Fatalf("GOMAXPROCS=%d: estimate digest %s, want %s", procs, got, estimatePin)
		}
	}
}

// recordingSource serves an inner source's rows, fails the users in
// fail, and records every Row call in call order. It counts the calls
// that started while another was still in flight.
type recordingSource struct {
	inner RowSource
	fail  map[int]error

	inFlight atomic.Int32
	overlaps atomic.Int32
	mu       sync.Mutex
	calls    []int
}

func (s *recordingSource) N() int { return s.inner.N() }

func (s *recordingSource) Row(sc obs.SpanContext, user int) ([]int32, []float64, error) {
	if s.inFlight.Add(1) > 1 {
		s.overlaps.Add(1)
	}
	defer s.inFlight.Add(-1)
	runtime.Gosched() // give a concurrent caller the chance to overlap
	s.mu.Lock()
	s.calls = append(s.calls, user)
	s.mu.Unlock()
	if err := s.fail[user]; err != nil {
		return nil, nil, err
	}
	return s.inner.Row(sc, user)
}

// levelFetches replays cfg's walks one at a time over src and returns
// the rows an estimate has to fetch: level by level, the users some live
// walk stands on that no earlier level reached, ascending within a level.
func levelFetches(t *testing.T, src RowSource, cfg Config, source int) []int {
	t.Helper()
	base := sim.NewRNG(cfg.Seed).DeriveStream("walk")
	levels := make([]map[int]bool, cfg.Depth)
	for d := range levels {
		levels[d] = make(map[int]bool)
	}
	for w := 0; w < cfg.Walks; w++ {
		rng := base.At(uint64(w))
		cur := source
		for d := 0; d < cfg.Depth; d++ {
			levels[d][cur] = true
			cols, vals, err := src.Row(obs.SpanContext{}, cur)
			if err != nil {
				t.Fatal(err)
			}
			next := stepFrom(cols, vals, rng.Float64())
			if next < 0 {
				break
			}
			cur = int(next)
		}
	}
	seen := make(map[int]bool)
	var want []int
	for _, level := range levels {
		var fresh []int
		for u := range level {
			if !seen[u] {
				seen[u] = true
				fresh = append(fresh, u)
			}
		}
		slices.Sort(fresh)
		want = append(want, fresh...)
	}
	return want
}

// The row-call contract of one estimate: Row is called once for each
// distinct user a live walk stands on before a step, never twice; the
// calls come level by level, ascending within a level, one at a time;
// and the sequence is the same at any GOMAXPROCS and on every rerun.
// That fixed order is what keeps a fault injector that draws in call
// order (chaos.Chaos) reproducible.
func TestEstimateRowCallContract(t *testing.T) {
	tm, err := RandomTM(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewLocalSource(tm)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Walks: 4000, Depth: 3, Seed: 9}
	const source = 3 // 45 distinct rows over three levels
	want := levelFetches(t, local, cfg, source)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for rerun := 0; rerun < 2; rerun++ {
			rec := &recordingSource{inner: local}
			est, err := New(rec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := est.Estimate(source); err != nil {
				t.Fatal(err)
			}
			if n := rec.overlaps.Load(); n > 0 {
				t.Fatalf("GOMAXPROCS=%d rerun %d: %d Row calls overlapped another", procs, rerun, n)
			}
			if !slices.Equal(rec.calls, want) {
				t.Fatalf("GOMAXPROCS=%d rerun %d: %d Row calls (first %v), want the %d distinct rows level by level, ascending: %v",
					procs, rerun, len(rec.calls), rec.calls[:min(len(rec.calls), 8)], len(want), want)
			}
		}
	}
}
