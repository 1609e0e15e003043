package p2psim

import (
	"fmt"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/dist"
	"mdrep/internal/eval"
	"mdrep/internal/incentive"
	"mdrep/internal/metrics"
	"mdrep/internal/sim"
	"mdrep/internal/sparse"
)

// version is one concrete file: a (title, real|fake) instance.
type version struct {
	id       eval.FileID
	title    int
	fake     bool
	size     int64
	owners   []int
	ownerSet map[int]struct{}
	// ownerSince records when each owner first held the version; the LIP
	// baseline ranks by the summed holding durations (lifetime ×
	// popularity mass).
	ownerSince map[int]time.Duration
	// evaluators are all peers that ever published an evaluation of this
	// version — §4.1 keeps a deleted downloader's (negative) evaluation
	// in the DHT until TTL, which is exactly what lets fast deletion of
	// fakes warn later requesters.
	evaluators   []int
	evaluatorSet map[int]struct{}
}

func (v *version) addOwner(p int, now time.Duration) {
	if _, ok := v.ownerSet[p]; ok {
		return
	}
	v.ownerSet[p] = struct{}{}
	v.owners = append(v.owners, p)
	if v.ownerSince == nil {
		v.ownerSince = make(map[int]time.Duration, 8)
	}
	v.ownerSince[p] = now
	v.addEvaluator(p)
}

// lipMass is the LIP ranking signal at time now: total time the version
// has been held across its current owners, excluding the requester. It
// sums in owner insertion order (owners are never removed), so the
// signal has the same bits on every run.
func (v *version) lipMass(d int, now time.Duration) float64 {
	total := 0.0
	for _, p := range v.owners {
		if p == d {
			continue
		}
		if held := now - v.ownerSince[p]; held > 0 {
			total += held.Hours()
		}
	}
	return total
}

func (v *version) addEvaluator(p int) {
	if _, ok := v.evaluatorSet[p]; ok {
		return
	}
	if v.evaluatorSet == nil {
		v.evaluatorSet = make(map[int]struct{}, 8)
	}
	v.evaluatorSet[p] = struct{}{}
	v.evaluators = append(v.evaluators, p)
}

// Result carries everything the E1–E3 experiments report.
type Result struct {
	Config Config
	// FakeRatio is the fraction of completed downloads that were fake,
	// over time — the E1 headline series.
	FakeRatio *metrics.Series
	// TotalDownloads and FakeDownloads aggregate the run.
	TotalDownloads, FakeDownloads int
	// AvoidedFakes counts requests where the scheme rejected every
	// candidate as fake (the user walked away instead of downloading).
	AvoidedFakes int
	// WaitByClass is the queueing delay (seconds) per behaviour class —
	// the E2 headline.
	WaitByClass map[Behavior]*metrics.Summary
	// BandwidthByClass is the granted transfer bandwidth (bytes/sec) per
	// class.
	BandwidthByClass map[Behavior]*metrics.Summary
	// ReputationByClass is the mean end-of-run reputation each class
	// holds in honest observers' multi-trust views.
	ReputationByClass map[Behavior]float64
	// Behaviors records each peer's assigned class.
	Behaviors []Behavior
}

// FakeFraction returns the overall fake-download fraction.
func (r *Result) FakeFraction() float64 {
	if r.TotalDownloads == 0 {
		return 0
	}
	return float64(r.FakeDownloads) / float64(r.TotalDownloads)
}

// Sim is one simulation instance. Build with New, run with Run.
type Sim struct {
	cfg       Config
	rng       *sim.RNG
	engine    *core.Sharded
	behaviors []Behavior
	titles    [][]*version
	servers   []*incentive.Server
	tm        *sparse.CSR
	repCache  map[int]map[int]float64
	res       *Result
}

// New builds a simulator: assigns behaviours, seeds the catalogue with
// real versions at honest peers, and injects fake versions of the most
// popular titles at polluters.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	engine, err := core.NewSharded(cfg.Peers, 1, cfg.Reputation)
	if err != nil {
		return nil, err
	}
	fakeRatio, err := metrics.NewSeries("fake-ratio-"+cfg.Scheme.String(), cfg.Duration/28)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:       cfg,
		rng:       sim.NewRNG(cfg.Seed),
		engine:    engine,
		behaviors: make([]Behavior, cfg.Peers),
		titles:    make([][]*version, cfg.Titles),
		servers:   make([]*incentive.Server, cfg.Peers),
		repCache:  make(map[int]map[int]float64),
		res: &Result{
			Config:            cfg,
			FakeRatio:         fakeRatio,
			WaitByClass:       make(map[Behavior]*metrics.Summary),
			BandwidthByClass:  make(map[Behavior]*metrics.Summary),
			ReputationByClass: make(map[Behavior]float64),
		},
	}
	for _, b := range []Behavior{Honest, FreeRider, Polluter, Liar} {
		s.res.WaitByClass[b] = &metrics.Summary{}
		s.res.BandwidthByClass[b] = &metrics.Summary{}
	}
	for i := range s.servers {
		srv, err := incentive.NewServer(cfg.Policy)
		if err != nil {
			return nil, err
		}
		s.servers[i] = srv
	}
	s.assignBehaviors()
	if err := s.seedCatalogue(); err != nil {
		return nil, err
	}
	s.res.Behaviors = append([]Behavior(nil), s.behaviors...)
	return s, nil
}

func (s *Sim) assignBehaviors() {
	n := s.cfg.Peers
	perm := s.rng.DeriveStream("behaviors").Perm(n)
	nFree := int(float64(n) * s.cfg.FreeRiderFrac)
	nPoll := int(float64(n) * s.cfg.PolluterFrac)
	nLiar := int(float64(n) * s.cfg.LiarFrac)
	for i, p := range perm {
		switch {
		case i < nFree:
			s.behaviors[p] = FreeRider
		case i < nFree+nPoll:
			s.behaviors[p] = Polluter
		case i < nFree+nPoll+nLiar:
			s.behaviors[p] = Liar
		default:
			s.behaviors[p] = Honest
		}
	}
}

// peersWith returns the peers of a behaviour class.
func (s *Sim) peersWith(b Behavior) []int {
	out := make([]int, 0, s.cfg.Peers)
	for p, pb := range s.behaviors {
		if pb == b {
			out = append(out, p)
		}
	}
	return out
}

func versionID(title int, fake bool, variant int) eval.FileID {
	if fake {
		return eval.FileID(fmt.Sprintf("title-%04d-fake-%d", title, variant))
	}
	return eval.FileID(fmt.Sprintf("title-%04d-real", title))
}

func (s *Sim) seedCatalogue() error {
	rng := s.rng.DeriveStream("catalogue")
	sizeDist, err := dist.NewBoundedPareto(1.2, float64(s.cfg.MeanFileSize)/4, float64(s.cfg.MeanFileSize)*8)
	if err != nil {
		return err
	}
	honest := s.peersWith(Honest)
	liars := s.peersWith(Liar)
	sharers := append(append([]int{}, honest...), liars...)
	if len(sharers) == 0 {
		return fmt.Errorf("p2psim: no sharing peers to seed catalogue")
	}
	polluters := s.peersWith(Polluter)

	for t := 0; t < s.cfg.Titles; t++ {
		size := int64(sizeDist.Sample(rng))
		real := &version{
			id:       versionID(t, false, 0),
			title:    t,
			size:     size,
			ownerSet: make(map[int]struct{}, 4),
		}
		nSeed := 1 + rng.Intn(3)
		// Real versions predate the run: seeders have held them for up to
		// 30 days, the pre-history LIP's lifetime signal keys on.
		preHistory := -time.Duration(rng.Intn(30*24)) * time.Hour
		for k := 0; k < nSeed; k++ {
			p := sharers[rng.Intn(len(sharers))]
			real.addOwner(p, preHistory)
			// Seeders have held the file a long time: strong implicit
			// approval, plus an occasional vote.
			if err := s.engine.SetImplicit(p, real.id, 0.95, 0); err != nil {
				return err
			}
			if rng.Float64() < s.cfg.VoteProb {
				if err := s.engine.Vote(p, real.id, s.truthfulVote(p, false, rng), 0); err != nil {
					return err
				}
			}
		}
		s.titles[t] = []*version{real}

		// Polluters fake the most popular titles (lowest rank = most
		// popular under the Zipf draw below).
		if t < s.cfg.PollutedTitles && len(polluters) > 0 {
			fake := &version{
				id:       versionID(t, true, 0),
				title:    t,
				fake:     true,
				size:     size,
				ownerSet: make(map[int]struct{}, 8),
			}
			nOwners := 1 + len(polluters)/3
			fakeSince := time.Duration(0) // injected at the start of the run
			if s.cfg.PatientPolluters {
				fakeSince = preHistory // seeded as early as the real copy
			}
			for k := 0; k < nOwners; k++ {
				fake.addOwner(polluters[rng.Intn(len(polluters))], fakeSince)
			}
			// Vote stuffing (the KaZaA/Maze pollution playbook): every
			// polluter pushes the fake up and poisons the real version
			// down, whether or not it hosts a copy.
			for _, p := range polluters {
				if err := s.engine.Vote(p, fake.id, 1.0, 0); err != nil {
					return err
				}
				if err := s.engine.SetImplicit(p, fake.id, 0.95, 0); err != nil {
					return err
				}
				fake.addEvaluator(p)
				if err := s.engine.Vote(p, real.id, 0.1*rng.Float64(), 0); err != nil {
					return err
				}
				real.addEvaluator(p)
			}
			s.titles[t] = append(s.titles[t], fake)
		}
	}
	return nil
}

// truthfulVote returns the vote a peer casts given the file's true nature,
// filtered through its behaviour.
func (s *Sim) truthfulVote(p int, fake bool, rng *sim.RNG) float64 {
	truth := 0.9 + 0.1*rng.Float64()
	if fake {
		truth = 0.1 * rng.Float64()
	}
	switch s.behaviors[p] {
	case Liar:
		return 1 - truth
	case Polluter:
		if fake {
			return 1.0
		}
		return 0.2 * rng.Float64() // poison real files
	default:
		return truth
	}
}

// reputations returns peer p's cached multi-trust row for this epoch.
func (s *Sim) reputations(p int) (map[int]float64, error) {
	if row, ok := s.repCache[p]; ok {
		return row, nil
	}
	row, err := s.engine.ReputationsFromTM(s.tm, p)
	if err != nil {
		return nil, err
	}
	s.repCache[p] = row
	return row, nil
}

func (s *Sim) rebuildEpoch(now time.Duration) error {
	s.engine.Compact(now)
	tm, err := s.engine.TM(now)
	if err != nil {
		return err
	}
	s.tm = tm
	s.repCache = make(map[int]map[int]float64, len(s.repCache))
	return nil
}

func (s *Sim) drainServers() {
	// E2 statistics are steady-state: completions from the first half of
	// the run are served but not recorded, so the cold start (when every
	// peer sits at the quota floor) does not swamp the class means.
	warmup := s.cfg.Duration / 2
	for _, srv := range s.servers {
		for _, c := range srv.ServeAll() {
			if c.Request.Arrival < warmup {
				continue
			}
			b := s.behaviors[c.Request.Requester]
			s.res.WaitByClass[b].Observe(c.Wait().Seconds())
			s.res.BandwidthByClass[b].Observe(s.cfg.Policy.Bandwidth(c.Request.Reputation))
		}
	}
}

// judge scores one candidate version for downloader d; higher is better.
// ok=false means the scheme rejects the version outright.
func (s *Sim) judge(d int, v *version, now time.Duration) (float64, bool, error) {
	const neutralPrior = 0.5
	switch s.cfg.Scheme {
	case SchemeNone:
		return float64(len(v.owners)), true, nil
	case SchemeLIP:
		return v.lipMass(d, now), true, nil
	case SchemeNaiveVoting:
		evs := s.engine.CollectOwnerEvaluations(v.id, v.evaluators, now)
		if len(evs) == 0 {
			return neutralPrior, true, nil
		}
		sum := 0.0
		for _, oe := range evs {
			sum += oe.Value
		}
		mean := sum / float64(len(evs))
		return mean, mean >= s.cfg.Reputation.FakeThreshold, nil
	case SchemeMDRep:
		evs := s.engine.CollectOwnerEvaluations(v.id, v.evaluators, now)
		reps, err := s.reputations(d)
		if err != nil {
			return 0, false, err
		}
		r, err := core.FileReputation(reps, evs)
		if err != nil {
			// No reputation path: neutral prior, allow the download so
			// bootstrap is possible.
			return neutralPrior, true, nil //nolint:nilerr // ErrNoReputation is the bootstrap case
		}
		return r, r >= s.cfg.Reputation.FakeThreshold, nil
	default:
		return 0, false, fmt.Errorf("p2psim: unknown scheme %d", int(s.cfg.Scheme))
	}
}

// Run executes the full simulation and returns its results.
func (s *Sim) Run() (*Result, error) {
	evRNG := s.rng.DeriveStream("events")
	pop, err := dist.NewZipf(s.cfg.Titles, s.cfg.ZipfExponent)
	if err != nil {
		return nil, err
	}
	activity, err := dist.NewBoundedPareto(1.0, 1, 100)
	if err != nil {
		return nil, err
	}
	actRNG := s.rng.DeriveStream("activity")
	weights := make([]float64, s.cfg.Peers)
	for i := range weights {
		weights[i] = activity.Sample(actRNG)
	}
	picker, err := dist.NewWeighted(weights)
	if err != nil {
		return nil, err
	}

	if err := s.rebuildEpoch(0); err != nil {
		return nil, err
	}
	var now time.Duration
	nextEpoch := s.cfg.EpochLen
	meanGap := float64(s.cfg.Duration) / float64(s.cfg.Requests+1)
	for issued := 0; issued < s.cfg.Requests; issued++ {
		now += time.Duration(evRNG.ExpFloat64() * meanGap)
		if now > s.cfg.Duration {
			break
		}
		for now >= nextEpoch {
			s.drainServers()
			if err := s.rebuildEpoch(nextEpoch); err != nil {
				return nil, err
			}
			nextEpoch += s.cfg.EpochLen
		}
		if err := s.handleRequest(evRNG, pop, picker, now); err != nil {
			return nil, err
		}
	}
	s.drainServers()
	if err := s.finalize(); err != nil {
		return nil, err
	}
	return s.res, nil
}

// online samples the memoryless session-churn state of a peer at this
// instant.
func (s *Sim) online(rng *sim.RNG) bool {
	return s.cfg.OnlineFraction >= 1 || rng.Float64() < s.cfg.OnlineFraction
}

func (s *Sim) handleRequest(rng *sim.RNG, pop *dist.Zipf, picker *dist.Weighted, now time.Duration) error {
	d := picker.Index(rng)
	if !s.online(rng) {
		return nil // requester offline at this instant
	}
	title := pop.Rank(rng)

	// Candidate versions must have at least one owner other than d.
	type candidate struct {
		v     *version
		score float64
	}
	var cands []candidate
	var best *candidate
	versions := s.titles[title]
	if len(versions) > 1 {
		// Judge in random order so ties between unknown versions do not
		// systematically favour the catalogue's insertion order.
		shuffled := make([]*version, len(versions))
		copy(shuffled, versions)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		versions = shuffled
	}
	for _, v := range versions {
		servable := false
		for _, o := range v.owners {
			if o != d {
				servable = true
				break
			}
		}
		if !servable {
			continue
		}
		score, ok, err := s.judge(d, v, now)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		cands = append(cands, candidate{v: v, score: score})
		if best == nil || score > best.score {
			best = &cands[len(cands)-1]
		}
	}
	if best == nil {
		// Every candidate rejected (or nothing servable). If versions
		// existed, the scheme saved the user from a fake.
		if len(s.titles[title]) > 0 {
			s.res.AvoidedFakes++
		}
		return nil
	}
	v := best.v

	// Pick an online uploader among owners other than d.
	uploader := -1
	for try := 0; try < 16; try++ {
		cand := v.owners[rng.Intn(len(v.owners))]
		if cand != d && s.online(rng) {
			uploader = cand
			break
		}
	}
	if uploader == -1 {
		return nil // no owner reachable right now (churn)
	}

	// The download happens.
	s.res.TotalDownloads++
	if v.fake {
		s.res.FakeDownloads++
	}
	s.res.FakeRatio.Observe(now, v.fake)
	if err := s.engine.RecordDownload(d, uploader, v.id, v.size, now); err != nil {
		return err
	}

	// Incentive queue at the uploader: reputation is the uploader's view
	// of the requester.
	upReps, err := s.reputations(uploader)
	if err != nil {
		return err
	}
	// The policy's reputation axis is population-normalised: 1.0 is the
	// uniform share (a peer holding exactly average trust), so policy
	// thresholds mean the same thing at any population size.
	if err := s.servers[uploader].Enqueue(incentive.Request{
		Requester:  d,
		File:       string(v.id),
		Size:       v.size,
		Arrival:    now,
		Reputation: upReps[d] * float64(s.cfg.Peers),
	}); err != nil {
		return err
	}

	// Post-download evaluation per behaviour.
	if err := s.evaluateAfterDownload(d, v, rng, now); err != nil {
		return err
	}

	// Every downloader published an evaluation; sharers additionally keep
	// and serve the version.
	v.addEvaluator(d)
	if s.behaviors[d] != FreeRider {
		keepFake := s.behaviors[d] == Polluter
		if !v.fake || keepFake {
			v.addOwner(d, now)
		}
	}
	return nil
}

func (s *Sim) evaluateAfterDownload(d int, v *version, rng *sim.RNG, now time.Duration) error {
	b := s.behaviors[d]
	// Implicit evaluation: honest-like peers delete fakes quickly and
	// keep real files; polluters keep and bless their stock in trade.
	var implicit float64
	switch {
	case b == Polluter && v.fake:
		implicit = 0.95
	case v.fake:
		implicit = 0.05 * rng.Float64() // deleted almost immediately
	default:
		implicit = 0.85 + 0.1*rng.Float64()
	}
	if err := s.engine.SetImplicit(d, v.id, implicit, now); err != nil {
		return err
	}
	// Explicit vote: free-riders never vote (no enthusiasm); polluters
	// always promote fakes; others vote with VoteProb.
	voteProb := s.cfg.VoteProb
	switch {
	case b == FreeRider:
		voteProb = 0
	case b == Polluter && v.fake:
		voteProb = 1
	}
	if rng.Float64() < voteProb {
		if err := s.engine.Vote(d, v.id, s.truthfulVote(d, v.fake, rng), now); err != nil {
			return err
		}
	}
	return nil
}

// finalize computes end-of-run per-class reputation means as seen by a
// panel of honest observers.
func (s *Sim) finalize() error {
	if err := s.rebuildEpoch(s.cfg.Duration); err != nil {
		return err
	}
	honest := s.peersWith(Honest)
	if len(honest) == 0 {
		return nil
	}
	panel := honest
	if len(panel) > 10 {
		panel = panel[:10]
	}
	classSum := make(map[Behavior]float64)
	classCount := make(map[Behavior]int)
	for _, obs := range panel {
		reps, err := s.reputations(obs)
		if err != nil {
			return err
		}
		for p, b := range s.behaviors {
			if p == obs {
				continue
			}
			classSum[b] += reps[p]
			classCount[b]++
		}
	}
	for b, sum := range classSum {
		if classCount[b] > 0 {
			s.res.ReputationByClass[b] = sum / float64(classCount[b])
		}
	}
	return nil
}

// Run is the one-call entry point: build and execute a simulation.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
