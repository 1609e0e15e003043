package massim

import (
	"strings"
	"testing"
	"time"
)

// testConfig is the fast in-tree test point; the CI sim job and the
// EXPERIMENTS.md entries use the n=10k reference point via the CLI.
func testConfig(n int) Config {
	cfg := DefaultConfig()
	cfg.N = n
	return cfg
}

// TestScenarioSuite runs every registered scenario at the small test
// size and requires each to pass its own verdict bound — the in-tree
// form of the attack-resistance regression suite.
func TestScenarioSuite(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			scn, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(testConfig(2000), scn)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verdict.Pass {
				t.Fatalf("verdict failed: %+v\n%s", res.Verdict, res.Render())
			}
		})
	}
}

// TestScenarioShape pins the structural invariants of a finished run.
func TestScenarioShape(t *testing.T) {
	scn, err := Lookup("collusion-front")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2000)
	res, err := Run(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != cfg.Epochs || len(res.RepTrajectory) != cfg.Epochs {
		t.Fatalf("epochs = %d, trajectory = %d, want %d", res.Epochs, len(res.RepTrajectory), cfg.Epochs)
	}
	if res.Events == 0 {
		t.Fatal("no events executed")
	}
	total := 0
	for _, c := range res.Classes {
		total += c.Count
		if c.MeanRep < 0 || c.MeanRep > 1 || c.MeanCred < 0 || c.MeanCred > 1 {
			t.Fatalf("class %s rep/cred outside [0,1]: %+v", c.Name, c)
		}
		if sum := c.Tiers[0] + c.Tiers[1] + c.Tiers[2]; sum != c.Count {
			t.Fatalf("class %s tier distribution sums to %d, want %d", c.Name, sum, c.Count)
		}
	}
	if total != cfg.N {
		t.Fatalf("class counts sum to %d, want %d", total, cfg.N)
	}
	if res.Class("honest") == nil || res.Class("nope") != nil {
		t.Fatal("class lookup broken")
	}
}

// TestDeterminism is the reproducibility contract: same (scenario,
// seed, n) twice must render byte-identically, and a different seed
// must not collide.
func TestDeterminism(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			run := func(seed uint64) string {
				scn, err := Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := testConfig(1000)
				cfg.Seed = seed
				cfg.Baselines = true
				cfg.MirrorEngine = true
				res, err := Run(cfg, scn)
				if err != nil {
					t.Fatal(err)
				}
				return res.Render()
			}
			a, b := run(42), run(42)
			if a != b {
				t.Fatalf("reruns differ:\n--- first\n%s--- second\n%s", a, b)
			}
			if c := run(43); c == a {
				t.Fatal("different seed produced identical output")
			}
		})
	}
}

// TestBaselineStory pins the headline comparison: the collusion ring
// captures EigenTrust (fabricated praise inflates the ring above the
// honest mean) while the multi-dimensional model keeps the ring at the
// bottom of the scale.
func TestBaselineStory(t *testing.T) {
	scn, err := Lookup("collusion-front")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2000)
	cfg.Baselines = true
	cfg.MirrorEngine = true
	res, err := Run(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Baselines
	if b == nil || b.EigenTrust == nil || b.Blue == nil || b.Engine == nil {
		t.Fatalf("baselines incomplete: %+v", b)
	}
	mean := func(ms []ClassMean, class string) float64 {
		for _, m := range ms {
			if m.Class == class {
				return m.Mean
			}
		}
		t.Fatalf("class %s missing from baseline", class)
		return 0
	}
	if et := mean(b.EigenTrust, "ring-core"); et <= mean(b.EigenTrust, "honest") {
		t.Fatalf("expected EigenTrust to be captured by the ring, got core=%v honest=%v",
			et, mean(b.EigenTrust, "honest"))
	}
	if res.FinalRep("ring-core") >= res.FinalRep("honest") {
		t.Fatalf("massim model captured by the ring: core=%v honest=%v",
			res.FinalRep("ring-core"), res.FinalRep("honest"))
	}
	if !strings.Contains(res.Render(), "baseline eigentrust") {
		t.Fatal("render missing baseline lines")
	}
}

// TestBaselineCapSkips pins that baselines silently skip above the cap.
func TestBaselineCapSkips(t *testing.T) {
	scn, err := Lookup("whitewash")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1000)
	cfg.Baselines = true
	cfg.BaselineCap = 500
	res, err := Run(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baselines != nil {
		t.Fatal("baselines ran above BaselineCap")
	}
}

// TestConfigValidate walks the rejection branches.
func TestConfigValidate(t *testing.T) {
	mut := map[string]func(*Config){
		"tiny population":    func(c *Config) { c.N = 4 },
		"no epochs":          func(c *Config) { c.Epochs = 0 },
		"bad epoch length":   func(c *Config) { c.EpochLen = 0 },
		"bad tick":           func(c *Config) { c.Tick = -time.Second },
		"tick over epoch":    func(c *Config) { c.Tick = c.EpochLen + 1 },
		"bad request rate":   func(c *Config) { c.MeanRequests = 0 },
		"negative titles":    func(c *Config) { c.Titles = -1 },
		"bad polluted frac":  func(c *Config) { c.PollutedFrac = 1.5 },
		"bad zipf":           func(c *Config) { c.ZipfExponent = -1 },
		"bad vote prob":      func(c *Config) { c.VoteProb = 2 },
		"bad owners cap":     func(c *Config) { c.OwnersCap = 1 },
		"no seed owners":     func(c *Config) { c.SeedOwnersReal = 0 },
		"seeds over cap":     func(c *Config) { c.SeedOwnersFake = c.OwnersCap + 1 },
		"no candidates":      func(c *Config) { c.CandidateServers = 0 },
		"negative weight":    func(c *Config) { c.Alpha, c.Beta, c.Gamma = -0.5, 1, 0.5 },
		"weights not 1":      func(c *Config) { c.Alpha = 0.9 },
		"bad prior rep":      func(c *Config) { c.PriorRep = 1.5 },
		"bad prior weight":   func(c *Config) { c.PriorWeight = 0 },
		"bad contrib half":   func(c *Config) { c.ContribHalf = 0 },
		"bad decay":          func(c *Config) { c.Decay = 1.5 },
		"bad judge prior":    func(c *Config) { c.JudgeVotePrior = 0 },
		"bad judge weight":   func(c *Config) { c.JudgeVoteWeight = 2 },
		"bad whitewash":      func(c *Config) { c.WhitewashBelow = -0.1 },
		"bad explore":        func(c *Config) { c.ExploreProb = 1.1 },
		"bad coop memory":    func(c *Config) { c.CoopMemory = 0 },
		"bad baseline cap":   func(c *Config) { c.BaselineCap = -1 },
		"bad policy":         func(c *Config) { c.Policy.QuotaThreshold = -1 },
		"ascending tiers":    func(c *Config) { c.TierBounds = []float64{0.4, 0.7} },
		"tier bound at one":  func(c *Config) { c.TierBounds = []float64{1.0} },
		"tier bound at zero": func(c *Config) { c.TierBounds = []float64{0.5, 0.0} },
	}
	for name, f := range mut {
		cfg := DefaultConfig()
		f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	// A zero seed is a valid seed, not a missing one.
	cfg := DefaultConfig()
	cfg.Seed = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero seed rejected: %v", err)
	}
}

// TestNewSimErrors covers scenario-construction failure modes.
func TestNewSimErrors(t *testing.T) {
	if _, err := NewSim(DefaultConfig(), nil); err == nil {
		t.Fatal("nil scenario accepted")
	}
	if _, err := NewSim(DefaultConfig(), badScenario{specs: nil}); err == nil {
		t.Fatal("empty class list accepted")
	}
	if _, err := NewSim(DefaultConfig(), badScenario{specs: []ClassSpec{
		{Name: "adv", Frac: 0.5, Adversary: true, Agent: polluterAgent{}},
	}}); err == nil {
		t.Fatal("adversary-last class list accepted")
	}
	if _, err := NewSim(DefaultConfig(), badScenario{specs: []ClassSpec{
		{Name: "a", Frac: 0.5, Agent: nil},
		{Name: "honest", Agent: honestAgent{}},
	}}); err == nil {
		t.Fatal("nil agent accepted")
	}
	cfg := DefaultConfig()
	cfg.N = 10
	if _, err := NewSim(cfg, badScenario{specs: []ClassSpec{
		{Name: "a", Frac: 0.01, Agent: polluterAgent{}},
		{Name: "honest", Agent: honestAgent{}},
	}}); err == nil {
		t.Fatal("empty class at small n accepted")
	}
}

type badScenario struct{ specs []ClassSpec }

func (badScenario) Name() string            { return "bad" }
func (badScenario) Describe() string        { return "constructed for error tests" }
func (badScenario) Tune(*Config)            {}
func (b badScenario) Specs() []ClassSpec    { return b.specs }
func (badScenario) Verdict(*Result) Verdict { return Verdict{} }

// TestLookupUnknown pins the registry error path.
func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

// TestMirrorShardsInvariance pins the sharded mirror as a pure
// throughput knob: the same (scenario, seed) renders byte-for-byte
// identically whether the mirror engine runs at the default one shard or
// at 8 shards.
func TestMirrorShardsInvariance(t *testing.T) {
	scn, err := Lookup("collusion-front")
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards int) string {
		cfg := testConfig(1000)
		cfg.Baselines = true
		cfg.MirrorEngine = true
		cfg.MirrorShards = shards
		res, err := Run(cfg, scn)
		if err != nil {
			t.Fatal(err)
		}
		return res.Render()
	}
	plain := run(0)
	if sharded := run(8); sharded != plain {
		t.Fatalf("sharded mirror changed the report:\n--- one shard\n%s--- 8 shards\n%s", plain, sharded)
	}
}

func TestMirrorShardsValidation(t *testing.T) {
	scn, err := Lookup("collusion-front")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(100)
	cfg.MirrorShards = -1
	if _, err := Run(cfg, scn); err == nil {
		t.Fatal("negative mirror shard count accepted")
	}
}
