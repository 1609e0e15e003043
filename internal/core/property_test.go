package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/sim"
)

// TestFileReputationBounded: R_f always lies within [min, max] of the
// contributing evaluations — a weighted mean cannot extrapolate.
func TestFileReputationBounded(t *testing.T) {
	rng := sim.NewRNG(101)
	f := func(nRaw uint8) bool {
		n := int(nRaw%10) + 1
		reps := make(map[int]float64, n)
		owners := make([]OwnerEvaluation, 0, n)
		lo, hi := 1.0, 0.0
		for i := 0; i < n; i++ {
			r := rng.Float64()
			if r == 0 {
				r = 0.5
			}
			reps[i] = r
			v := rng.Float64()
			owners = append(owners, OwnerEvaluation{Owner: i, Value: v})
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		rf, err := FileReputation(reps, owners)
		if err != nil {
			return false
		}
		return rf >= lo-1e-12 && rf <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFileReputationMonotone: raising one evaluator's opinion never
// lowers R_f.
func TestFileReputationMonotone(t *testing.T) {
	rng := sim.NewRNG(103)
	f := func(nRaw, whichRaw uint8, bump float64) bool {
		n := int(nRaw%8) + 1
		which := int(whichRaw) % n
		bump = math.Abs(bump)
		if math.IsNaN(bump) || math.IsInf(bump, 0) {
			return true
		}
		reps := make(map[int]float64, n)
		owners := make([]OwnerEvaluation, 0, n)
		for i := 0; i < n; i++ {
			reps[i] = rng.Float64() + 0.01
			owners = append(owners, OwnerEvaluation{Owner: i, Value: rng.Float64()})
		}
		before, err := FileReputation(reps, owners)
		if err != nil {
			return false
		}
		raised := make([]OwnerEvaluation, len(owners))
		copy(raised, owners)
		v := raised[which].Value + bump
		if v > 1 {
			v = 1
		}
		raised[which].Value = v
		after, err := FileReputation(reps, raised)
		if err != nil {
			return false
		}
		return after >= before-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRowsSubStochastic: whatever evidence an engine ingests, every
// TM row sums to at most 1 (+ numerical slack) and all entries are
// non-negative — trust is a bounded resource.
func TestEngineRowsSubStochastic(t *testing.T) {
	rng := sim.NewRNG(107)
	f := func(seed uint16) bool {
		r := rng.DeriveStream(fmt.Sprintf("case-%d", seed))
		n := 4 + r.Intn(12)
		e, err := NewSharded(n, 1, DefaultConfig())
		if err != nil {
			return false
		}
		ops := 30 + r.Intn(100)
		for k := 0; k < ops; k++ {
			i, j := r.Intn(n), r.Intn(n)
			fid := eval.FileID(fmt.Sprintf("f%d", r.Intn(20)))
			now := time.Duration(k) * time.Minute
			switch r.Intn(5) {
			case 0:
				_ = e.Vote(i, fid, r.Float64(), now)
			case 1:
				_ = e.SetImplicit(i, fid, r.Float64(), now)
			case 2:
				if i != j {
					_ = e.RecordDownload(i, j, fid, int64(r.Intn(1<<20)+1), now)
				}
			case 3:
				if i != j {
					_ = e.RateUser(i, j, r.Float64())
				}
			case 4:
				if i != j {
					_ = e.Blacklist(i, j)
				}
			}
		}
		tm, err := e.TM(time.Duration(ops) * time.Minute)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			sum := 0.0
			cols, vals := tm.Row(i)
			for k, j := range cols {
				if vals[k] < 0 || j < 0 || int(j) >= n {
					return false
				}
				sum += vals[k]
			}
			if sum > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestReputationsNonNegativeAndBounded: multi-trust rows inherit the
// sub-stochastic property at any depth.
func TestReputationsNonNegativeAndBounded(t *testing.T) {
	rng := sim.NewRNG(109)
	for _, steps := range []int{1, 2, 3} {
		cfg := DefaultConfig()
		cfg.Steps = steps
		e, err := NewSharded(10, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 200; k++ {
			i, j := rng.Intn(10), rng.Intn(10)
			if i == j {
				continue
			}
			fid := eval.FileID(fmt.Sprintf("f%d", rng.Intn(15)))
			_ = e.Vote(i, fid, rng.Float64(), 0)
			_ = e.RecordDownload(i, j, fid, 1000, 0)
		}
		for i := 0; i < 10; i++ {
			reps, err := e.Reputations(i, 0)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, v := range reps {
				if v < 0 {
					t.Fatalf("steps=%d: negative reputation %v", steps, v)
				}
				sum += v
			}
			if sum > 1+1e-9 {
				t.Fatalf("steps=%d: reputation mass %v exceeds 1", steps, sum)
			}
		}
	}
}

// TestCoverageWindowMonotone: a longer retention window never reduces
// coverage (evaluations only live longer).
func TestCoverageWindowMonotone(t *testing.T) {
	tr := coverageTrace(t)
	prev := -1.0
	for _, window := range []time.Duration{12 * time.Hour, 3 * 24 * time.Hour, 10 * 24 * time.Hour, 0} {
		cfg := baseCoverageConfig()
		cfg.VoteFraction = 0.5
		cfg.Window = window
		frac := measure(t, tr, cfg).OverallFraction()
		if frac < prev-1e-12 {
			t.Fatalf("coverage decreased when window grew to %v: %v < %v", window, frac, prev)
		}
		prev = frac
	}
}
