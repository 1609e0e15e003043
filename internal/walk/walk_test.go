package walk

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"mdrep/internal/fault"
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
	"mdrep/internal/sparse"
)

// chain4 is a hand-checkable 4-user matrix:
//
//	0 → 1 (1.0)
//	1 → 2 (0.5), 3 (0.5)
//	2 → 0 (1.0)
//	3 is dangling
func chain4(t *testing.T) *sparse.CSR {
	t.Helper()
	return sparse.FreezeNormalized(4, []map[int]float64{
		{1: 1},
		{2: 1, 3: 1},
		{0: 1},
		nil,
	})
}

func TestConfigValidation(t *testing.T) {
	src, err := NewLocalSource(chain4(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"zero walks": {Walks: 0, Depth: 1},
		"zero depth": {Walks: 1, Depth: 0},
	} {
		if _, err := New(src, cfg); !fault.IsTerminal(err) {
			t.Fatalf("%s: err = %v, want fault.Terminal", name, err)
		}
	}
	if _, err := New(nil, Config{Walks: 1, Depth: 1}); !fault.IsTerminal(err) {
		t.Fatalf("nil source: err = %v, want fault.Terminal", err)
	}
	if _, err := NewLocalSource(nil); !fault.IsTerminal(err) {
		t.Fatalf("nil matrix: err = %v, want fault.Terminal", err)
	}
	est, err := New(src, Config{Walks: 8, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Estimate(-1); !fault.IsTerminal(err) {
		t.Fatalf("source -1: err = %v, want fault.Terminal", err)
	}
	if _, err := est.Estimate(4); !fault.IsTerminal(err) {
		t.Fatalf("source 4: err = %v, want fault.Terminal", err)
	}
}

// Depth-1 walks from a deterministic row reproduce the row exactly: user
// 0's only transition is to user 1, so every walk ends there.
func TestEstimateDeterministicRow(t *testing.T) {
	src, err := NewLocalSource(chain4(t))
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(src, Config{Walks: 1000, Depth: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Estimate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[1] != 1.0 {
		t.Fatalf("estimate = %v, want {1: 1}", got)
	}
}

// Walks that reach the dangling user die, so the estimate's mass matches
// the exact row's mass loss, not 1.
func TestDanglingRowsLoseMass(t *testing.T) {
	tm := chain4(t)
	src, err := NewLocalSource(tm)
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(src, Config{Walks: 64000, Depth: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Estimate(0)
	if err != nil {
		t.Fatal(err)
	}
	// Exact: 0 → 1 → {2, 3}; the half that reached 3 dies on step 3, the
	// half at 2 returns to 0 — so (TM³)₀. = {0: 0.5}.
	exact, err := tm.RowVecPow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e := MaxAbsError(got, exact); e > 0.02 {
		t.Fatalf("max error %v vs exact %v (estimate %v)", e, exact, got)
	}
	mass := 0.0
	for _, j := range sortedKeys(got) {
		mass += got[j]
	}
	if mass < 0.45 || mass > 0.55 {
		t.Fatalf("surviving mass = %v, want ≈ 0.5 (half the walks die at the dangling user)", mass)
	}
}

// A failing row aborts the estimate at its level: the error names the
// level and the lowest failing user, keeps that row's fault class, and
// no Row call follows the failing one — the same at one CPU and at four,
// with more walks than one scheduling block.
func TestEstimateAbortsOnRowError(t *testing.T) {
	// User 0 fans out to users 1–6, and each of them leads back to 0, so
	// level 1 stands on six users; 3 and 5 fail, with different classes.
	fan := make([]map[int]float64, 7)
	fan[0] = map[int]float64{1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}
	for u := 1; u < 7; u++ {
		fan[u] = map[int]float64{0: 1}
	}
	local, err := NewLocalSource(sparse.FreezeNormalized(7, fan))
	if err != nil {
		t.Fatal(err)
	}
	rowErr := fault.Unreachable(errors.New("row store down"))
	const wantErr = "walk: step 1 at user 3: row store down"
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		src := &recordingSource{inner: local, fail: map[int]error{
			3: rowErr,
			5: fault.Terminal(errors.New("row corrupt")),
		}}
		est, err := New(src, Config{Walks: 500, Depth: 3, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		got, err := est.Estimate(0)
		if got != nil {
			t.Fatalf("GOMAXPROCS=%d: aborted estimate must return nil, got %v", procs, got)
		}
		if err == nil || err.Error() != wantErr {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want %q", procs, err, wantErr)
		}
		if !errors.Is(err, rowErr) || !fault.Retryable(err) {
			t.Fatalf("GOMAXPROCS=%d: err = %v must wrap the row error and stay retryable", procs, err)
		}
		if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(src.calls, want) {
			t.Fatalf("GOMAXPROCS=%d: Row calls %v, want %v (none after the failing row)", procs, src.calls, want)
		}
	}
}

// The determinism contract: a fixed (seed, walks, depth, source) yields a
// byte-identical estimate across reruns and across GOMAXPROCS values.
func TestEstimateByteReproducible(t *testing.T) {
	tm, err := RandomTM(500, 99)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewLocalSource(tm)
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(src, Config{Walks: 4000, Depth: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() map[int]float64 {
		got, err := est.Estimate(1)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	baseline := runOnce()
	for _, procs := range []int{1, 2, prev, 16} {
		runtime.GOMAXPROCS(procs)
		for rerun := 0; rerun < 2; rerun++ {
			if got := runOnce(); !reflect.DeepEqual(got, baseline) {
				t.Fatalf("estimate changed at GOMAXPROCS=%d rerun %d", procs, rerun)
			}
		}
	}
}

// Different seeds must actually sample different ensembles — otherwise
// the reproducibility test above proves nothing.
func TestEstimateSeedSensitive(t *testing.T) {
	tm, err := RandomTM(200, 5)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewLocalSource(tm)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) map[int]float64 {
		est, err := New(src, Config{Walks: 500, Depth: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		got, err := est.Estimate(0)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if reflect.DeepEqual(run(1), run(2)) {
		t.Fatal("seeds 1 and 2 produced identical estimates")
	}
}

// Cross-validation property over random graphs: for every size and seed,
// the estimate converges toward the exact RowVecPow answer as the walk
// count grows 1k→16k, and at 16k the top-10 ranking substantially agrees
// with the exact one.
func TestCrossValidationAgainstExactKernel(t *testing.T) {
	for _, n := range []int{100, 500, 2000} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < 3; seed++ {
				tm, err := RandomTM(n, seed)
				if err != nil {
					t.Fatal(err)
				}
				points, err := RunSweep(tm, SweepConfig{
					Source:     int(seed) % n,
					Depth:      3,
					Seed:       seed + 1,
					WalkCounts: []int{1000, 4000, 16000},
				})
				if err != nil {
					t.Fatal(err)
				}
				first, last := points[0], points[len(points)-1]
				if last.MaxErr >= first.MaxErr {
					t.Errorf("seed %d: max error did not shrink: %v", seed, points)
				}
				if last.Top10 < 8 {
					t.Errorf("seed %d: top-10 overlap at 16k walks = %d/10, want >= 8", seed, last.Top10)
				}
			}
		})
	}
}

// E11 acceptance bound: mean absolute error vs the exact kernel at 16k
// walks on n=2000 graphs stays under 5% of the value scale.
func TestE11MeanErrorBound(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		tm, err := RandomTM(2000, seed)
		if err != nil {
			t.Fatal(err)
		}
		points, err := RunSweep(tm, SweepConfig{
			Source:     7,
			Depth:      3,
			Seed:       seed,
			WalkCounts: []int{16000},
		})
		if err != nil {
			t.Fatal(err)
		}
		if points[0].MeanErr > 0.05 {
			t.Fatalf("seed %d: mean abs error %v above the 0.05 E11 bound", seed, points[0].MeanErr)
		}
	}
}

func TestErrorHelpers(t *testing.T) {
	est := map[int]float64{1: 0.5, 2: 0.25}
	exact := map[int]float64{1: 0.4, 3: 0.1}
	if got := MaxAbsError(est, exact); got != 0.25 {
		t.Fatalf("MaxAbsError = %v, want 0.25", got)
	}
	want := (0.1 + 0.25 + 0.1) / 3
	if got := MeanAbsError(est, exact); got < want-1e-15 || got > want+1e-15 {
		t.Fatalf("MeanAbsError = %v, want %v", got, want)
	}
	if got := MaxAbsError(nil, nil); got != 0 {
		t.Fatalf("MaxAbsError(nil, nil) = %v, want 0", got)
	}
	if got := MeanAbsError(nil, nil); got != 0 {
		t.Fatalf("MeanAbsError(nil, nil) = %v, want 0", got)
	}
	if got := TopKOverlap(map[int]float64{1: 0.9, 2: 0.8, 3: 0.1}, map[int]float64{1: 0.7, 2: 0.2, 4: 0.9}, 2); got != 1 {
		t.Fatalf("TopKOverlap = %v, want 1 (only user 1 is in both top-2 sets)", got)
	}
}

func TestRenderSweep(t *testing.T) {
	out := RenderSweep([]SweepPoint{{Walks: 1000, MaxErr: 0.01, MeanErr: 0.001, Top10: 9}})
	if out == "" {
		t.Fatal("empty render")
	}
}

// Instrumented estimates surface walk totals and outcomes on the
// registry; uninstrumented runs must stay silent and not crash.
func TestWalkMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	clock := obs.WallClock
	Instrument(reg, clock)
	defer Uninstrument()
	src, err := NewLocalSource(chain4(t))
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(src, Config{Walks: 100, Depth: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Estimate(0); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range reg.Snapshot() {
		if s.Name == "walk_walks_total" && s.Counter == 100 {
			found = true
		}
	}
	if !found {
		t.Fatal("walk_walks_total != 100 after a 100-walk estimate")
	}
	Uninstrument()
	if _, err := est.Estimate(0); err != nil {
		t.Fatal(err)
	}
}
