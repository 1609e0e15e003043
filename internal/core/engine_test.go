package core

import (
	"math"
	"testing"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/sparse"
)

// dimCSR builds TM at now and freezes dimension d's row store, every
// row of the dimension at now, into a CSR.
func dimCSR(t *testing.T, s *Sharded, d int, now time.Duration) *sparse.CSR {
	t.Helper()
	if _, err := s.TM(now); err != nil {
		t.Fatal(err)
	}
	c, err := sparse.WeightedSum(nil, s.N(), allRows(s.N()), []sparse.Weighted{{Scale: 1, Rows: s.dims[d]}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// allRows lists [0, n): the dirty set of a full build.
func allRows(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Alpha = -0.1 },
		func(c *Config) { c.Alpha, c.Beta, c.Gamma = 0.5, 0.5, 0.5 },
		func(c *Config) { c.Blend = eval.Blend{Eta: 1, Rho: 1} },
		func(c *Config) { c.Steps = 0 },
		func(c *Config) { c.Window = -time.Second },
		func(c *Config) { c.FakeThreshold = 1.5 },
		func(c *Config) { c.FriendTrust = -1 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d validated", i)
		}
	}
}

func TestNewEngineRejectsBadArgs(t *testing.T) {
	if _, err := NewSharded(0, 1, DefaultConfig()); err == nil {
		t.Fatal("empty population accepted")
	}
	bad := DefaultConfig()
	bad.Steps = 0
	if _, err := NewSharded(3, 1, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestEngineBoundsChecks(t *testing.T) {
	e := mustSharded(t, 3, 1, DefaultConfig())
	if err := e.SetImplicit(5, "f", 0.5, 0); err == nil {
		t.Fatal("out-of-range peer accepted by SetImplicit")
	}
	if err := e.Vote(-1, "f", 0.5, 0); err == nil {
		t.Fatal("out-of-range peer accepted by Vote")
	}
	if err := e.RecordDownload(0, 9, "f", 1, 0); err == nil {
		t.Fatal("out-of-range uploader accepted")
	}
	if err := e.RecordDownload(1, 1, "f", 1, 0); err == nil {
		t.Fatal("self-download accepted")
	}
	if err := e.RecordDownload(0, 1, "f", -5, 0); err == nil {
		t.Fatal("negative size accepted")
	}
	if err := e.RateUser(0, 0, 0.5); err == nil {
		t.Fatal("self-rating accepted")
	}
	if err := e.RateUser(0, 1, 2); err == nil {
		t.Fatal("out-of-range rating accepted")
	}
}

// fmOnlyConfig gives a pure file-based TM so FM values are directly
// observable through TM.
func fmOnlyConfig() Config {
	cfg := DefaultConfig()
	cfg.Alpha, cfg.Beta, cfg.Gamma = 1, 0, 0
	cfg.Blend = eval.Blend{Eta: 0, Rho: 1} // votes only, exact values
	return cfg
}

func TestBuildFMEquation2(t *testing.T) {
	e := mustSharded(t, 3, 1, fmOnlyConfig())
	// Peers 0 and 1 co-evaluate files a and b.
	mustVote := func(p int, f eval.FileID, v float64) {
		t.Helper()
		if err := e.Vote(p, f, v, 0); err != nil {
			t.Fatal(err)
		}
	}
	mustVote(0, "a", 1.0)
	mustVote(1, "a", 0.8)
	mustVote(0, "b", 0.2)
	mustVote(1, "b", 0.6)
	fm := dimCSR(t, e, dimFM, 0)
	// FT_01 = 1 - (|1-0.8| + |0.2-0.6|)/2 = 1 - 0.3 = 0.7, and it is the
	// only entry in rows 0 and 1, so FM_01 = FM_10 = 1 after
	// normalisation.
	if got := fm.Get(0, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("FM_01 = %v, want 1 (sole entry normalised)", got)
	}
	// Peer 2 evaluated nothing: empty row.
	if fm.RowNNZ(2) != 0 {
		t.Fatal("peer with no evaluations has FM entries")
	}
}

func TestBuildFMRelativeSimilarity(t *testing.T) {
	e := mustSharded(t, 3, 1, fmOnlyConfig())
	mustVote := func(p int, f eval.FileID, v float64) {
		t.Helper()
		if err := e.Vote(p, f, v, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Peer 0 agrees perfectly with peer 1, disagrees with peer 2.
	mustVote(0, "x", 1.0)
	mustVote(1, "x", 1.0)
	mustVote(2, "x", 0.0)
	fm := dimCSR(t, e, dimFM, 0)
	// FT_01 = 1, FT_02 = 0 (dropped), FT_12 = 0 (dropped).
	if got := fm.Get(0, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("FM_01 = %v, want 1", got)
	}
	if got := fm.Get(0, 2); got != 0 {
		t.Fatalf("FM_02 = %v, want 0 (total disagreement)", got)
	}
}

func TestBuildFMDisjointEvaluationsNoEdge(t *testing.T) {
	e := mustSharded(t, 2, 1, fmOnlyConfig())
	if err := e.Vote(0, "a", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Vote(1, "b", 1, 0); err != nil {
		t.Fatal(err)
	}
	fm := dimCSR(t, e, dimFM, 0)
	if fm.NNZ() != 0 {
		t.Fatal("disjoint evaluation sets produced an FM edge")
	}
}

// TestBuildFMWindowExpiry builds one engine at three times with no
// event in between. At 90 min only peer 2's vote is live, so its row
// still reads file a: a rebuild that kept the list derived at 30 min
// would pair it with the expired votes of peers 0 and 1.
func TestBuildFMWindowExpiry(t *testing.T) {
	cfg := fmOnlyConfig()
	cfg.Window = time.Hour
	e := mustSharded(t, 3, 1, cfg)
	for p, at := range []time.Duration{0, 0, 80 * time.Minute} {
		if err := e.Vote(p, "a", 1, at); err != nil {
			t.Fatal(err)
		}
	}
	if fm := dimCSR(t, e, dimFM, 30*time.Minute); fm.Get(0, 1) == 0 {
		t.Fatal("live co-evaluation produced no edge")
	}
	for _, at := range []time.Duration{90 * time.Minute, 3 * time.Hour} {
		if fm := dimCSR(t, e, dimFM, at); fm.NNZ() != 0 {
			t.Fatalf("expired evaluations still produce FM edges at %v", at)
		}
	}
}

func TestBuildDMEquation4(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha, cfg.Beta, cfg.Gamma = 0, 1, 0
	cfg.Blend = eval.Blend{Eta: 0, Rho: 1}
	e := mustSharded(t, 3, 1, cfg)
	// Peer 0 downloads from peers 1 and 2 and evaluates the files.
	if err := e.RecordDownload(0, 1, "big", 1000, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.RecordDownload(0, 2, "small", 500, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Vote(0, "big", 1.0, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Vote(0, "small", 0.5, 0); err != nil {
		t.Fatal(err)
	}
	dm := dimCSR(t, e, dimDM, 0)
	// VD_01 = 1.0*1000 = 1000, VD_02 = 0.5*500 = 250 → normalised 0.8 / 0.2.
	if got := dm.Get(0, 1); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("DM_01 = %v, want 0.8", got)
	}
	if got := dm.Get(0, 2); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("DM_02 = %v, want 0.2", got)
	}
}

func TestBuildDMUnevaluatedUsesFloor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha, cfg.Beta, cfg.Gamma = 0, 1, 0
	e := mustSharded(t, 2, 1, cfg)
	if err := e.RecordDownload(0, 1, "f", 100, 0); err != nil {
		t.Fatal(err)
	}
	dm := dimCSR(t, e, dimDM, 0)
	if got := dm.Get(0, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("DM_01 = %v, want 1 (sole floor-weighted entry)", got)
	}
}

func TestBuildDMFakeFileEarnsNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha, cfg.Beta, cfg.Gamma = 0, 1, 0
	cfg.Blend = eval.Blend{Eta: 0, Rho: 1}
	e := mustSharded(t, 3, 1, cfg)
	if err := e.RecordDownload(0, 1, "real", 100, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.RecordDownload(0, 2, "fake", 100000, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Vote(0, "real", 1.0, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Vote(0, "fake", 0.0, 0); err != nil { // judged fake
		t.Fatal(err)
	}
	dm := dimCSR(t, e, dimDM, 0)
	if got := dm.Get(0, 2); got != 0 {
		t.Fatalf("fake upload earned DM %v, want 0", got)
	}
	if got := dm.Get(0, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("DM_01 = %v, want 1", got)
	}
}

func TestBuildUMAndBlacklist(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha, cfg.Beta, cfg.Gamma = 0, 0, 1
	e := mustSharded(t, 4, 1, cfg)
	if err := e.RateUser(0, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := e.RateUser(0, 2, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := e.Blacklist(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.RateUser(0, 2, 1.0); err != nil { // ignored: blacklisted
		t.Fatal(err)
	}
	um := dimCSR(t, e, dimUM, 0)
	if got := um.Get(0, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("UM_01 = %v, want 1 after blacklist removed peer 2", got)
	}
	if got := um.Get(0, 2); got != 0 {
		t.Fatalf("UM_02 = %v, want 0 (blacklisted)", got)
	}
}

func TestAddFriendUsesConfiguredTrust(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha, cfg.Beta, cfg.Gamma = 0, 0, 1
	cfg.FriendTrust = 0.8
	e := mustSharded(t, 3, 1, cfg)
	if err := e.AddFriend(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.RateUser(0, 2, 0.2); err != nil {
		t.Fatal(err)
	}
	um := dimCSR(t, e, dimUM, 0)
	if got := um.Get(0, 1); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("UM_01 = %v, want 0.8", got)
	}
}

func TestBuildTMConvexIntegration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Blend = eval.Blend{Eta: 0, Rho: 1}
	e := mustSharded(t, 3, 1, cfg)
	// Give peer 0 all three dimensions toward peer 1.
	if err := e.Vote(0, "a", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Vote(1, "a", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.RecordDownload(0, 1, "a", 100, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.RateUser(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	tm, err := e.TM(0)
	if err != nil {
		t.Fatal(err)
	}
	// All three normalised matrices have exactly one entry (0,1) = 1, so
	// TM_01 = α + β + γ = 1.
	if got := tm.Get(0, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("TM_01 = %v, want 1", got)
	}
}

func TestBuildTMSubStochasticWhenDimensionMissing(t *testing.T) {
	cfg := DefaultConfig() // α=0.5 β=0.3 γ=0.2
	cfg.Blend = eval.Blend{Eta: 0, Rho: 1}
	e := mustSharded(t, 2, 1, cfg)
	// Only the file dimension exists.
	if err := e.Vote(0, "a", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Vote(1, "a", 1, 0); err != nil {
		t.Fatal(err)
	}
	tm, err := e.TM(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := tm.RowSum(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("row sum %v, want α=0.5 (missing evidence not reweighted)", got)
	}
}

func TestReputationsMatchBuildRM(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Steps = 2
	cfg.Blend = eval.Blend{Eta: 0, Rho: 1}
	e := mustSharded(t, 4, 1, cfg)
	// Chain of similarity 0→1→2 plus downloads 0→3.
	files := []struct {
		p int
		f eval.FileID
		v float64
	}{
		{0, "a", 1}, {1, "a", 0.9}, {1, "b", 0.8}, {2, "b", 0.7}, {3, "a", 0.4},
	}
	for _, x := range files {
		if err := e.Vote(x.p, x.f, x.v, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RecordDownload(0, 3, "a", 500, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.RateUser(2, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	tm, err := e.TM(0)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := tm.Pow(cfg.Steps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		reps, err := e.Reputations(i, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if math.Abs(reps[j]-rm.Get(i, j)) > 1e-9 {
				t.Fatalf("Reputations(%d)[%d] = %v, RM = %v", i, j, reps[j], rm.Get(i, j))
			}
		}
	}
}

func TestMultiTrustReachesFriendOfFriend(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha, cfg.Beta, cfg.Gamma = 0, 0, 1
	e := mustSharded(t, 3, 1, cfg)
	// 0 trusts 1, 1 trusts 2; no direct 0→2 edge.
	if err := e.RateUser(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.RateUser(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	one, err := e.Reputations(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if one[2] != 0 {
		t.Fatalf("one-step reputation reached 2 hops: %v", one[2])
	}
	cfg.Steps = 2
	e2 := mustSharded(t, 3, 1, cfg)
	if err := e2.RateUser(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := e2.RateUser(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	two, err := e2.Reputations(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(two[2]-1) > 1e-12 {
		t.Fatalf("two-step reputation of friend-of-friend = %v, want 1", two[2])
	}
}

func TestCompactPrunesIndex(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = time.Hour
	e := mustSharded(t, 2, 1, cfg)
	if err := e.Vote(0, "a", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Vote(1, "a", 1, 0); err != nil {
		t.Fatal(err)
	}
	e.Compact(3 * time.Hour)
	if n := e.eng.evaluators.fileCount(); n != 0 {
		t.Fatalf("evaluator index not pruned: %d files", n)
	}
	if fm := dimCSR(t, e, dimFM, 3*time.Hour); fm.NNZ() != 0 {
		t.Fatal("FM edges from compacted evaluations")
	}
}

func TestEvaluationAccessor(t *testing.T) {
	e := mustSharded(t, 2, 1, DefaultConfig())
	if _, ok := e.Evaluation(0, "f", 0); ok {
		t.Fatal("missing evaluation reported present")
	}
	if err := e.SetImplicit(0, "f", 0.7, 0); err != nil {
		t.Fatal(err)
	}
	v, ok := e.Evaluation(0, "f", 0)
	if !ok || math.Abs(v-0.7) > 1e-12 {
		t.Fatalf("Evaluation = %v, %v", v, ok)
	}
	if _, ok := e.Evaluation(9, "f", 0); ok {
		t.Fatal("out-of-range peer reported present")
	}
}

func TestMaxEvaluatorsPerFileCapsPairing(t *testing.T) {
	cfg := fmOnlyConfig()
	cfg.MaxEvaluatorsPerFile = 5
	e := mustSharded(t, 50, 1, cfg)
	// 40 peers agree on one file; uncapped this is 780 pairs, capped it
	// is C(5,2) = 10.
	for p := 0; p < 40; p++ {
		if err := e.Vote(p, "popular", 0.9, 0); err != nil {
			t.Fatal(err)
		}
	}
	fm := dimCSR(t, e, dimFM, 0)
	// 5 sampled evaluators → each has edges to the other 4 at most.
	maxRowLen := 0
	rows := 0
	for i := 0; i < 50; i++ {
		if l := fm.RowNNZ(i); l > 0 {
			rows++
			if l > maxRowLen {
				maxRowLen = l
			}
		}
	}
	if rows != 5 {
		t.Fatalf("cap kept %d evaluators, want 5", rows)
	}
	if maxRowLen > 4 {
		t.Fatalf("row has %d edges, cap broken", maxRowLen)
	}
}

func TestMaxEvaluatorsDeterministic(t *testing.T) {
	build := func() []sparse.Entry {
		cfg := fmOnlyConfig()
		cfg.MaxEvaluatorsPerFile = 3
		e := mustSharded(t, 30, 1, cfg)
		for p := 0; p < 20; p++ {
			if err := e.Vote(p, "f", float64(p)/20, 0); err != nil {
				t.Fatal(err)
			}
		}
		return dimCSR(t, e, dimFM, 0).Entries()
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("capped FM not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("capped FM not deterministic")
		}
	}
}

func TestNegativeEvaluatorCapRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxEvaluatorsPerFile = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative cap accepted")
	}
}
