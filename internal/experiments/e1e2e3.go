package experiments

import (
	"fmt"
	"sort"
	"strings"

	"mdrep/internal/core"
	"mdrep/internal/eigentrust"
	"mdrep/internal/eval"
	"mdrep/internal/metrics"
	"mdrep/internal/p2psim"
	"mdrep/internal/security"
	"mdrep/internal/sim"
	"mdrep/internal/trace"
)

func p2psimConfig(scale Scale, base p2psim.Config) p2psim.Config {
	if scale == ScaleSmall {
		base.Peers = 300
		base.Titles = 400
		base.Requests = 15000
	}
	return base
}

// E1Result compares fake-file suppression across judgement schemes, in
// the fresh-attack scenario (fakes injected at the start of the run) and
// the patient-attacker scenario (fakes seeded with the same holding
// pre-history as real copies, which defeats lifetime heuristics).
type E1Result struct {
	// Labels names each run ("mdrep", "lip+patient", …).
	Labels []string
	// Runs holds the simulation result per label.
	Runs []*p2psim.Result
}

// Fraction returns the fake-download fraction of the labelled run, or -1
// if the label is unknown.
func (r *E1Result) Fraction(label string) float64 {
	for i, l := range r.Labels {
		if l == label {
			return r.Runs[i].FakeFraction()
		}
	}
	return -1
}

// E1FakeFiles runs the pollution scenario once per scheme, plus the
// patient-attacker variant for the two schemes it separates.
func E1FakeFiles(scale Scale) (*E1Result, error) {
	res := &E1Result{}
	runOne := func(label string, scheme p2psim.Scheme, patient bool) error {
		cfg := p2psimConfig(scale, p2psim.DefaultConfig())
		cfg.Scheme = scheme
		cfg.PatientPolluters = patient
		run, err := p2psim.Run(cfg)
		if err != nil {
			return fmt.Errorf("experiments: E1 %s: %w", label, err)
		}
		res.Labels = append(res.Labels, label)
		res.Runs = append(res.Runs, run)
		return nil
	}
	for _, scheme := range []p2psim.Scheme{
		p2psim.SchemeMDRep, p2psim.SchemeLIP, p2psim.SchemeNaiveVoting, p2psim.SchemeNone,
	} {
		if err := runOne(scheme.String(), scheme, false); err != nil {
			return nil, err
		}
	}
	if err := runOne("lip+patient", p2psim.SchemeLIP, true); err != nil {
		return nil, err
	}
	if err := runOne("mdrep+patient", p2psim.SchemeMDRep, true); err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats E1 as a chart of fake-download ratio over time plus the
// aggregate table.
func (r *E1Result) Render() string {
	var sb strings.Builder
	series := make([]*metrics.Series, 0, 4)
	for i, run := range r.Runs {
		if !strings.Contains(r.Labels[i], "patient") {
			series = append(series, run.FakeRatio)
		}
	}
	sb.WriteString(metrics.AsciiChart(
		"E1 — fake-download ratio over time by scheme (fresh attack)", 72, 14, series...))
	sb.WriteString("\nscheme          fake-ratio  avoided  downloads\n")
	for i, run := range r.Runs {
		fmt.Fprintf(&sb, "%-14s  %8.3f  %7d  %9d\n",
			r.Labels[i], run.FakeFraction(), run.AvoidedFakes, run.TotalDownloads)
	}
	sb.WriteString("\n'+patient' rows: fakes seeded with full pre-history — the attack\n")
	sb.WriteString("that defeats lifetime heuristics (LIP) but not behavioural trust.\n")
	return sb.String()
}

// E2Result reports service differentiation by behaviour class.
type E2Result struct {
	Run *p2psim.Result
	// Classes lists the populated behaviour classes in render order.
	Classes []p2psim.Behavior
}

// E2Incentive runs the free-riding scenario under the incentive policy.
func E2Incentive(scale Scale) (*E2Result, error) {
	cfg := p2psimConfig(scale, p2psim.IncentiveConfig())
	run, err := p2psim.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: E2: %w", err)
	}
	res := &E2Result{Run: run}
	for _, b := range []p2psim.Behavior{p2psim.Honest, p2psim.FreeRider, p2psim.Polluter, p2psim.Liar} {
		if run.WaitByClass[b].Count() > 0 {
			res.Classes = append(res.Classes, b)
		}
	}
	return res, nil
}

// Render formats E2 as the per-class service table.
func (r *E2Result) Render() string {
	var sb strings.Builder
	sb.WriteString("E2 — service differentiation (steady state)\n")
	sb.WriteString("class        wait-mean  wait-p90   bandwidth  reputation\n")
	for _, b := range r.Classes {
		w := r.Run.WaitByClass[b]
		bw := r.Run.BandwidthByClass[b]
		fmt.Fprintf(&sb, "%-11s  %7.0fs  %7.0fs  %8.0fB/s  %.6f\n",
			b, w.Mean(), w.Quantile(0.9), bw.Mean(), r.Run.ReputationByClass[b])
	}
	return sb.String()
}

// E3Config parameterises the collusion experiment.
type E3Config struct {
	// Seed drives trace generation and clique randomness.
	Seed uint64
	// HonestPeers is the size of the legitimate population.
	HonestPeers int
	// CliqueSize is the number of colluders appended after the honest
	// population.
	CliqueSize int
	// Downloads is the legitimate workload replayed into the engines.
	Downloads int
	// ServiceFraction is the share of legitimate downloads served by
	// clique members — the "mixed strategy" that lets collusion leak
	// into global trust.
	ServiceFraction float64
	// Clique tunes the forged evidence; Members is filled in by the
	// runner.
	Clique security.CliqueConfig
}

// DefaultE3Config returns the scenario recorded in EXPERIMENTS.md.
func DefaultE3Config(scale Scale) E3Config {
	cfg := E3Config{
		Seed:            7,
		HonestPeers:     150,
		CliqueSize:      50,
		Downloads:       30000,
		ServiceFraction: 0.05,
		Clique:          security.DefaultCliqueConfig(nil),
	}
	if scale == ScaleFull {
		cfg.HonestPeers = 400
		cfg.CliqueSize = 100
		cfg.Downloads = 100000
	}
	return cfg
}

// E3Result compares how much trust the clique captures under each
// mechanism, normalised by the service it actually rendered.
type E3Result struct {
	Config E3Config
	// ServiceShare is the clique's share of real upload volume.
	ServiceShare float64
	// MDRepShare is the clique's share of an honest observer panel's
	// multi-trust mass (1-step).
	MDRepShare float64
	// MDRepTwoStepShare is the same at n = 2 (amplification check).
	MDRepTwoStepShare float64
	// EigenTrustShare is the clique's share of EigenTrust global trust.
	EigenTrustShare float64
	// TitForTatShare is the clique's share under pairwise private
	// history (the honest panel's direct credits).
	TitForTatShare float64
}

// Amplification returns a mechanism's trust share divided by the clique's
// service share; 1.0 means trust proportional to actual service, larger
// means the collusion bought unearned trust.
func amplification(share, service float64) float64 {
	if service == 0 {
		return 0
	}
	return share / service
}

// E3Collusion replays a legitimate workload, injects a collusion clique,
// and measures the clique's captured trust under MDRep, EigenTrust, and
// Tit-for-Tat.
func E3Collusion(cfg E3Config) (*E3Result, error) {
	n := cfg.HonestPeers + cfg.CliqueSize
	if cfg.HonestPeers < 10 || cfg.CliqueSize < 2 {
		return nil, fmt.Errorf("experiments: E3 population too small (%d honest, %d clique)",
			cfg.HonestPeers, cfg.CliqueSize)
	}
	rng := sim.NewRNG(cfg.Seed)

	// Legitimate workload over the honest population.
	tc := trace.DefaultGenConfig()
	tc.Seed = cfg.Seed
	tc.Peers = cfg.HonestPeers
	tc.Files = cfg.HonestPeers * 5
	tc.Downloads = cfg.Downloads
	tr, err := trace.Generate(tc)
	if err != nil {
		return nil, fmt.Errorf("experiments: E3 trace: %w", err)
	}

	repCfg := core.DefaultConfig()
	engine, err := core.NewSharded(n, 1, repCfg)
	if err != nil {
		return nil, err
	}
	// sat[i][j] counts i's satisfactory downloads from j: the EigenTrust
	// and Tit-for-Tat ledger.
	sat := make([]map[int]float64, n)
	credit := func(i, j int, v float64) {
		if sat[i] == nil {
			sat[i] = make(map[int]float64)
		}
		sat[i][j] += v
	}
	var cliqueVolume, totalVolume float64
	cliqueStart := cfg.HonestPeers
	redirect := rng.DeriveStream("redirect")
	evalNoise := rng.DeriveStream("evals")
	for _, rec := range tr.Records {
		uploader := rec.Uploader
		// A fraction of legitimate service is rendered by clique members
		// (they really do upload some real files — the cover traffic that
		// makes collusion dangerous).
		if redirect.Float64() < cfg.ServiceFraction {
			uploader = cliqueStart + redirect.Intn(cfg.CliqueSize)
		}
		if uploader == rec.Downloader {
			continue
		}
		f := eval.FileID(trace.FileHash(rec.File))
		if err := engine.RecordDownload(rec.Downloader, uploader, f, rec.Size, rec.Time); err != nil {
			return nil, err
		}
		// Downloaders keep real files: high implicit evaluation.
		v := 0.85 + 0.1*evalNoise.Float64()
		if err := engine.SetImplicit(rec.Downloader, f, v, rec.Time); err != nil {
			return nil, err
		}
		credit(rec.Downloader, uploader, 1)
		totalVolume += float64(rec.Size)
		if uploader >= cliqueStart {
			cliqueVolume += float64(rec.Size)
		}
	}

	// Inject the clique's forged evidence.
	clique := make([]int, cfg.CliqueSize)
	for i := range clique {
		clique[i] = cliqueStart + i
	}
	cliqueCfg := cfg.Clique
	cliqueCfg.Members = clique
	if _, err := security.InjectClique(engine, cliqueCfg, rng.DeriveStream("clique"), tr.Duration()); err != nil {
		return nil, err
	}
	// Colluders also stuff the EigenTrust satisfaction ledger.
	for _, i := range clique {
		for _, j := range clique {
			if i != j {
				credit(i, j, float64(cliqueCfg.FakeDownloads))
			}
		}
	}

	res := &E3Result{Config: cfg, ServiceShare: cliqueVolume / totalVolume}

	// MDRep: honest observer panel, 1-step and 2-step.
	now := tr.Duration()
	tm, err := engine.TM(now)
	if err != nil {
		return nil, err
	}
	panel := []int{0, 1, 2, 3, 4}
	shareAt := func(steps int) (float64, error) {
		var cliqueMass, total float64
		for _, obs := range panel {
			row, err := tm.RowVecPow(obs, steps)
			if err != nil {
				return 0, err
			}
			for _, p := range ascendingPeers(row) {
				total += row[p]
				if p >= cliqueStart {
					cliqueMass += row[p]
				}
			}
		}
		if total == 0 {
			return 0, nil
		}
		return cliqueMass / total, nil
	}
	if res.MDRepShare, err = shareAt(1); err != nil {
		return nil, err
	}
	if res.MDRepTwoStepShare, err = shareAt(2); err != nil {
		return nil, err
	}

	// EigenTrust over the satisfaction ledger.
	local, err := eigentrust.LocalTrustFromSatisfaction(sat, make([]map[int]float64, n))
	if err != nil {
		return nil, err
	}
	et, err := eigentrust.Compute(local, eigentrust.DefaultConfig(panel))
	if err != nil {
		return nil, err
	}
	var cliqueTrust float64
	for _, p := range clique {
		cliqueTrust += et.Trust[p]
	}
	res.EigenTrustShare = cliqueTrust

	// Tit-for-Tat: the panel's private credit toward the clique.
	var tftClique, tftTotal float64
	for _, obs := range panel {
		for _, j := range ascendingPeers(sat[obs]) {
			tftTotal += sat[obs][j]
			if j >= cliqueStart {
				tftClique += sat[obs][j]
			}
		}
	}
	if tftTotal > 0 {
		res.TitForTatShare = tftClique / tftTotal
	}
	return res, nil
}

// ascendingPeers returns a row's peers in ascending order, the order E3
// sums a row in: a float sum over map iteration would differ run to run.
func ascendingPeers(row map[int]float64) []int {
	peers := make([]int, 0, len(row))
	for p := range row {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	return peers
}

// Render formats E3 as the amplification table.
func (r *E3Result) Render() string {
	var sb strings.Builder
	sb.WriteString("E3 — collusion: clique trust share vs service share\n")
	fmt.Fprintf(&sb, "clique service share (ground truth): %.4f\n\n", r.ServiceShare)
	rows := []struct {
		name  string
		share float64
	}{
		{"mdrep n=1", r.MDRepShare},
		{"mdrep n=2", r.MDRepTwoStepShare},
		{"eigentrust", r.EigenTrustShare},
		{"tit-for-tat", r.TitForTatShare},
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].share < rows[j].share })
	sb.WriteString("mechanism     trust-share  amplification\n")
	for _, row := range rows {
		fmt.Fprintf(&sb, "%-12s  %10.4f  %12.2fx\n",
			row.name, row.share, amplification(row.share, r.ServiceShare))
	}
	return sb.String()
}
