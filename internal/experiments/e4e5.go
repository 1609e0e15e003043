package experiments

import (
	"fmt"
	"strings"

	"mdrep/internal/core"
	"mdrep/internal/eval"
	"mdrep/internal/multitier"
	"mdrep/internal/sim"
	"mdrep/internal/titfortat"
	"mdrep/internal/trace"
)

// E4Result is the trust-dimension ablation: request coverage with the
// file dimension alone, plus download-volume edges, plus user-rating
// edges, in the sparse (5% votes) and implicit (100%) regimes, with
// Tit-for-Tat private history as the baseline.
type E4Result struct {
	// Regimes holds the vote fractions examined.
	Regimes []float64
	// FileOnly is the file-similarity dimension alone; PlusDM adds
	// download-volume edges; PlusUM adds user-rating edges (without DM);
	// All combines the three. The user-rating proxy (≥3 repeat
	// interactions) is a subset of the download-edge proxy (≥1), so All
	// equals PlusDM by construction — kept separate to make the
	// subsumption visible.
	FileOnly, PlusDM, PlusUM, All []float64
	// TitForTat is the private-history coverage on the same trace.
	TitForTat float64
}

// E4Ablation measures coverage per trust dimension on the Figure 1 trace.
func E4Ablation(scale Scale) (*E4Result, error) {
	tc := DefaultFig1Config(scale).Trace
	tr, err := trace.Generate(tc)
	if err != nil {
		return nil, fmt.Errorf("experiments: E4 trace: %w", err)
	}
	res := &E4Result{Regimes: []float64{0.05, 0.2, 1.0}}
	for _, k := range res.Regimes {
		base := core.CoverageConfig{VoteFraction: k, Buckets: 30, Seed: tc.Seed + 1}
		fileOnly, err := core.MeasureCoverage(tr, base)
		if err != nil {
			return nil, err
		}
		withDM := base
		withDM.WithDownloadEdges = true
		plusDM, err := core.MeasureCoverage(tr, withDM)
		if err != nil {
			return nil, err
		}
		withUM := base
		withUM.WithUserEdges = true
		withUM.UserEdgeThreshold = 3
		plusUM, err := core.MeasureCoverage(tr, withUM)
		if err != nil {
			return nil, err
		}
		withAll := withDM
		withAll.WithUserEdges = true
		withAll.UserEdgeThreshold = 3
		all, err := core.MeasureCoverage(tr, withAll)
		if err != nil {
			return nil, err
		}
		res.FileOnly = append(res.FileOnly, fileOnly.OverallFraction())
		res.PlusDM = append(res.PlusDM, plusDM.OverallFraction())
		res.PlusUM = append(res.PlusUM, plusUM.OverallFraction())
		res.All = append(res.All, all.OverallFraction())
	}

	ledger, err := titfortat.NewLedger(tr.Peers)
	if err != nil {
		return nil, err
	}
	covered := 0
	for _, rec := range tr.Records {
		if ledger.Covered(rec.Uploader, rec.Downloader) {
			covered++
		}
		if err := ledger.RecordDownload(rec.Downloader, rec.Uploader, rec.Size); err != nil {
			return nil, err
		}
	}
	if len(tr.Records) > 0 {
		res.TitForTat = float64(covered) / float64(len(tr.Records))
	}
	return res, nil
}

// Render formats E4 as the ablation table.
func (r *E4Result) Render() string {
	var sb strings.Builder
	sb.WriteString("E4 — request coverage by trust dimension\n")
	sb.WriteString("votes    file-only  +download  +user-only  all\n")
	for i, k := range r.Regimes {
		fmt.Fprintf(&sb, "%5.0f%%   %9.3f  %9.3f  %10.3f  %6.3f\n",
			k*100, r.FileOnly[i], r.PlusDM[i], r.PlusUM[i], r.All[i])
	}
	fmt.Fprintf(&sb, "tit-for-tat private history baseline: %.3f\n", r.TitForTat)
	return sb.String()
}

// E5Config parameterises the multi-trust step sweep.
type E5Config struct {
	// Seed drives trace generation and vote sampling.
	Seed uint64
	// Peers and Downloads size the workload replayed into the engine.
	Peers, Downloads int
	// VoteFraction is the sparse-regime explicit-vote probability.
	VoteFraction float64
	// MaxSteps is the deepest tier examined.
	MaxSteps int
	// Pairs is how many held-out (uploader, downloader) request pairs to
	// test coverage on.
	Pairs int
}

// DefaultE5Config returns the sparse-regime sweep of EXPERIMENTS.md.
func DefaultE5Config(scale Scale) E5Config {
	cfg := E5Config{
		Seed:         11,
		Peers:        250,
		Downloads:    15000,
		VoteFraction: 0.05,
		MaxSteps:     6,
		Pairs:        2000,
	}
	if scale == ScaleFull {
		cfg.Peers = 600
		cfg.Downloads = 60000
		cfg.Pairs = 5000
	}
	return cfg
}

// E5Result is coverage as a function of multi-trust depth n, in the
// sparse-vote regime where the one-step matrix has the coverage problem
// the multi-tier scheme was designed for.
type E5Result struct {
	Config E5Config
	// Coverage[k-1] is the fraction of request pairs reachable within k
	// steps of the one-step trust matrix.
	Coverage []float64
}

// E5Steps builds a sparse one-step trust matrix from the first 80% of a
// trace (votes only, 5%), then measures how many of the remaining request
// pairs each multi-trust depth covers.
func E5Steps(cfg E5Config) (*E5Result, error) {
	if cfg.MaxSteps < 1 || cfg.Peers < 10 || cfg.Pairs < 1 {
		return nil, fmt.Errorf("experiments: invalid E5 config %+v", cfg)
	}
	tc := trace.DefaultGenConfig()
	tc.Seed = cfg.Seed
	tc.Peers = cfg.Peers
	tc.Files = cfg.Peers * 5
	tc.Downloads = cfg.Downloads
	tr, err := trace.Generate(tc)
	if err != nil {
		return nil, fmt.Errorf("experiments: E5 trace: %w", err)
	}

	repCfg := core.DefaultConfig()
	// The sparse regime: votes only (no implicit evaluations) and the
	// file dimension alone, i.e. the "one-step sparse matrix problem"
	// the multi-tier scheme was built for.
	repCfg.Blend = eval.Blend{Eta: 0, Rho: 1}
	repCfg.Alpha, repCfg.Beta, repCfg.Gamma = 1, 0, 0
	engine, err := core.NewSharded(cfg.Peers, 1, repCfg)
	if err != nil {
		return nil, err
	}
	split := len(tr.Records) * 8 / 10
	voteRNG := sim.NewRNG(cfg.Seed).DeriveStream("votes")
	// The vote decision is per (peer, file), exactly as in the Figure 1
	// replay: a peer votes on VoteFraction of the files it owns, however
	// often it trades them.
	votes := func(p, file int) bool {
		z := cfg.Seed ^ uint64(p)*0x9e3779b97f4a7c15 ^ uint64(file)*0xc2b2ae3d27d4eb4f
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11)/(1<<53) < cfg.VoteFraction
	}
	for _, rec := range tr.Records[:split] {
		f := eval.FileID(trace.FileHash(rec.File))
		if err := engine.RecordDownload(rec.Downloader, rec.Uploader, f, rec.Size, rec.Time); err != nil {
			return nil, err
		}
		for _, p := range []int{rec.Downloader, rec.Uploader} {
			if votes(p, rec.File) {
				if err := engine.Vote(p, f, 0.85+0.1*voteRNG.Float64(), rec.Time); err != nil {
					return nil, err
				}
			}
		}
	}
	tm, err := engine.TM(tr.Duration())
	if err != nil {
		return nil, err
	}
	classifier, err := multitier.NewClassifier(tm, cfg.MaxSteps)
	if err != nil {
		return nil, err
	}
	held := tr.Records[split:]
	pairs := make([][2]int, 0, cfg.Pairs)
	for i := 0; i < len(held) && len(pairs) < cfg.Pairs; i++ {
		pairs = append(pairs, [2]int{held[i].Uploader, held[i].Downloader})
	}
	return &E5Result{Config: cfg, Coverage: classifier.Coverage(pairs)}, nil
}

// Render formats E5 as the coverage-vs-depth table.
func (r *E5Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "E5 — multi-trust depth vs request coverage (votes=%.0f%%)\n",
		r.Config.VoteFraction*100)
	sb.WriteString("steps  coverage\n")
	for k, c := range r.Coverage {
		fmt.Fprintf(&sb, "%5d  %8.3f\n", k+1, c)
	}
	sb.WriteString("note: deeper steps also amplify similarity cliques under vote\n")
	sb.WriteString("stuffing (see TestE5StepsAmplifyStuffing); the paper's n=1 choice\n")
	sb.WriteString("is safe exactly because implicit evaluation densifies one step.\n")
	return sb.String()
}
