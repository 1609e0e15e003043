package security

import (
	"fmt"
	"math"
	"testing"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/eval"
	"mdrep/internal/sim"
)

func list(vals ...float64) map[eval.FileID]float64 {
	out := make(map[eval.FileID]float64, len(vals))
	for i, v := range vals {
		out[eval.FileID(fmt.Sprintf("f%d", i))] = v
	}
	return out
}

func TestExaminerValidation(t *testing.T) {
	if _, err := NewExaminer(0, 1); err == nil {
		t.Fatal("zero threshold accepted")
	}
	if _, err := NewExaminer(1.5, 1); err == nil {
		t.Fatal("threshold > 1 accepted")
	}
	if _, err := NewExaminer(0.2, 0); err == nil {
		t.Fatal("zero overlap accepted")
	}
}

func TestExaminerFirstExaminationNoVerdict(t *testing.T) {
	x, err := NewExaminer(0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := x.Examine(1, list(0.9, 0.8, 0.7))
	if !math.IsNaN(v.Drift) || v.Flagged {
		t.Fatalf("first examination produced verdict: %+v", v)
	}
}

func TestExaminerHonestPeerPasses(t *testing.T) {
	x, err := NewExaminer(0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	x.Examine(1, list(0.9, 0.8, 0.7))
	// Small honest drift: one re-vote.
	v := x.Examine(1, list(0.9, 0.75, 0.7))
	if v.Flagged {
		t.Fatalf("honest peer flagged: %+v", v)
	}
	if v.Compared != 3 {
		t.Fatalf("compared %d files", v.Compared)
	}
}

func TestExaminerCatchesMimic(t *testing.T) {
	x, err := NewExaminer(0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	victimA := list(0.9, 0.9, 0.9)
	victimB := list(0.1, 0.1, 0.1)
	x.Examine(7, MimicList(victimA))
	v := x.Examine(7, MimicList(victimB))
	if !v.Flagged {
		t.Fatalf("mimic not flagged: %+v", v)
	}
	if !x.IsFlagged(7) || x.FlaggedPeers() != 1 {
		t.Fatal("flag not recorded")
	}
}

func TestExaminerFlagIsSticky(t *testing.T) {
	x, err := NewExaminer(0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	x.Examine(1, list(1.0))
	x.Examine(1, list(0.0)) // flagged
	v := x.Examine(1, list(0.0))
	if !v.Flagged {
		t.Fatal("flag cleared by later consistent behaviour")
	}
}

func TestExaminerInsufficientOverlap(t *testing.T) {
	x, err := NewExaminer(0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	x.Examine(1, list(1.0, 1.0))
	v := x.Examine(1, list(0.0, 0.0)) // only 2 shared files, need 3
	if v.Flagged {
		t.Fatal("flagged despite insufficient overlap")
	}
	if !math.IsNaN(v.Drift) {
		t.Fatalf("drift computed on insufficient overlap: %v", v.Drift)
	}
}

// TestExaminerDriftBitReproducible repeats one examination of the same
// two 64-file lists and expects one Drift bit pattern: the drift must
// sum in a fixed file order, never in map order, or a verdict near the
// threshold could differ between runs.
func TestExaminerDriftBitReproducible(t *testing.T) {
	before := make(map[eval.FileID]float64, 64)
	after := make(map[eval.FileID]float64, 64)
	for f := 0; f < 64; f++ {
		id := eval.FileID(fmt.Sprintf("f%02d", f))
		before[id] = float64(f*37%101) / 100
		after[id] = float64(f*53%97) / 96
	}
	seen := make(map[uint64]int)
	for i := 0; i < 200; i++ {
		x, err := NewExaminer(0.9, 1)
		if err != nil {
			t.Fatal(err)
		}
		x.Examine(0, before)
		seen[math.Float64bits(x.Examine(0, after).Drift)]++
	}
	if len(seen) != 1 {
		t.Fatalf("200 examinations of the same lists gave %d Drift bit patterns", len(seen))
	}
}

func TestMimicListIsCopy(t *testing.T) {
	victim := list(0.5)
	m := MimicList(victim)
	m["f0"] = 0.9
	if victim["f0"] != 0.5 {
		t.Fatal("MimicList aliases victim storage")
	}
}

func TestCliqueConfigValidation(t *testing.T) {
	good := DefaultCliqueConfig([]int{1, 2, 3})
	if err := good.Validate(); err != nil {
		t.Fatalf("default clique invalid: %v", err)
	}
	mutations := []func(*CliqueConfig){
		func(c *CliqueConfig) { c.Members = []int{1} },
		func(c *CliqueConfig) { c.MutualRating = 2 },
		func(c *CliqueConfig) { c.FakeDownloads = -1 },
		func(c *CliqueConfig) { c.AgreeOnFiles = -1 },
		func(c *CliqueConfig) { c.FakeDownloadSize = 0 },
	}
	for i, mutate := range mutations {
		cfg := DefaultCliqueConfig([]int{1, 2, 3})
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d validated", i)
		}
	}
}

// TestCliqueCannotBuyOutsideTrust is the heart of E3: a clique can trade
// evidence internally, but an honest observer with no edge into the clique
// assigns it no reputation, because all three matrices are built from the
// observer's own (or transitively reachable) evidence.
func TestCliqueCannotBuyOutsideTrust(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Steps = 2
	e, err := core.NewSharded(10, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	// Honest world: observer 0 co-evaluates with peers 1 and 2.
	for _, p := range []int{0, 1, 2} {
		if err := e.Vote(p, "real-1", 0.9, now); err != nil {
			t.Fatal(err)
		}
		if err := e.Vote(p, "real-2", 0.8, now); err != nil {
			t.Fatal(err)
		}
	}
	// Clique 5..9 self-inflates.
	rng := sim.NewRNG(1)
	if _, err := InjectClique(e, DefaultCliqueConfig([]int{5, 6, 7, 8, 9}), rng, now); err != nil {
		t.Fatal(err)
	}
	reps, err := e.Reputations(0, now)
	if err != nil {
		t.Fatal(err)
	}
	gain := CliqueGain(reps, []int{5, 6, 7, 8, 9}, []int{1, 2})
	if gain > 0.01 {
		t.Fatalf("clique bought %v of honest reputation from an outside observer", gain)
	}
}

// TestCliqueInflatesInsideViews confirms the attack does work from inside:
// a member sees fellow members as highly reputable, which is exactly why
// Eq. (9) weights evaluator reputation from the requester's own view.
func TestCliqueInflatesInsideViews(t *testing.T) {
	cfg := core.DefaultConfig()
	e, err := core.NewSharded(6, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(2)
	if _, err := InjectClique(e, DefaultCliqueConfig([]int{3, 4, 5}), rng, 0); err != nil {
		t.Fatal(err)
	}
	reps, err := e.Reputations(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reps[4] <= 0 || reps[5] <= 0 {
		t.Fatalf("clique member sees no fellow-member reputation: %v", reps)
	}
}

func TestInjectCliqueErrors(t *testing.T) {
	e, err := core.NewSharded(3, 1, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InjectClique(e, DefaultCliqueConfig([]int{0, 1}), nil, 0); err == nil {
		t.Fatal("nil rng accepted")
	}
	bad := DefaultCliqueConfig([]int{0})
	if _, err := InjectClique(e, bad, sim.NewRNG(1), 0); err == nil {
		t.Fatal("invalid clique accepted")
	}
	outOfRange := DefaultCliqueConfig([]int{0, 99})
	if _, err := InjectClique(e, outOfRange, sim.NewRNG(1), 0); err == nil {
		t.Fatal("out-of-range member accepted")
	}
}

func TestCliqueGainEdgeCases(t *testing.T) {
	reps := map[int]float64{1: 0.5, 2: 0.5}
	if g := CliqueGain(reps, []int{1}, nil); !math.IsInf(g, 1) {
		t.Fatalf("gain with no honest peers = %v, want +Inf", g)
	}
	if g := CliqueGain(reps, []int{1}, []int{2}); g != 1 {
		t.Fatalf("gain = %v, want 1", g)
	}
}
