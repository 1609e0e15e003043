// Package massim is the million-peer discrete-event simulator: a
// single-process, struct-of-arrays model of a reputation-mediated file
// sharing population, driven by a hierarchical timing wheel on the
// virtual clock of internal/sim. Where internal/p2psim runs the paper's
// engine faithfully at hundreds of peers, massim runs a compact
// reputation model at 100k–1M peers, turning the paper's evaluation
// into an attack-resistance regression suite (scenarios: collusion
// rings with front peers, whitewashing rejoin, camouflage voting,
// social-norm strategic agents).
//
// Determinism contract: a (scenario, seed, n) triple reproduces
// byte-for-byte. All randomness flows from seeded per-peer RNG streams
// (sim.RNG.At), the event queue pops in (tick, seq) order, and no
// result-affecting code ranges over a map. The wallclock and detfloat
// analyzers enforce the discipline in CI.
package massim

import (
	"errors"
	"fmt"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/incentive"
	"mdrep/internal/sim"
	"mdrep/internal/titfortat"
)

// Config parameterises a massim run. Scenario Tune hooks adjust it
// before validation.
type Config struct {
	// N is the population size.
	N int
	// Seed drives all randomness.
	Seed uint64
	// Epochs is the number of reputation epochs to simulate.
	Epochs int
	// EpochLen is the virtual time between reputation recomputations.
	EpochLen time.Duration
	// Tick is the timing-wheel resolution.
	Tick time.Duration
	// MeanRequests is the mean number of download requests a peer
	// issues per epoch (exponential inter-arrival times).
	MeanRequests float64
	// Titles is the catalogue size; 0 defaults to max(64, N/10).
	Titles int
	// PollutedFrac is the fraction of the most popular titles that
	// carry a fake version (forced to 0 when no class seeds fakes).
	PollutedFrac float64
	// ZipfExponent skews title popularity.
	ZipfExponent float64
	// VoteProb is the probability an honest peer votes after a
	// download on a contested title.
	VoteProb float64
	// OwnersCap bounds each version's tracked owner list.
	OwnersCap int
	// SeedOwnersReal / SeedOwnersFake are the initial owner counts per
	// version at setup.
	SeedOwnersReal, SeedOwnersFake int
	// CandidateServers is how many owners a requester samples before
	// picking the most reputable one.
	CandidateServers int

	// Alpha, Beta, Gamma blend the service-quality, vote-honesty and
	// contribution dimensions into the scalar reputation (sum to 1).
	Alpha, Beta, Gamma float64
	// PriorRep is the newcomer service-quality prior; PriorWeight its
	// pseudo-count.
	PriorRep, PriorWeight float64
	// ContribHalf is the (decayed) upload count at which the
	// contribution dimension reaches one half.
	ContribHalf float64
	// Decay multiplies every accumulator per epoch, bounding history.
	Decay float64
	// JudgeVotePrior smooths a version's vote score; JudgeVoteWeight is
	// the vote share of the judgement (the rest follows owner counts).
	JudgeVotePrior, JudgeVoteWeight float64

	// Policy maps requester reputation to admission probability
	// (Bandwidth/FullBandwidth) — the incentive differentiation layer.
	Policy incentive.Policy
	// WhitewashBelow is the reputation under which a whitewashing agent
	// discards its identity and rejoins as a newcomer.
	WhitewashBelow float64
	// ExploreProb is the per-epoch probability a strategic agent tests
	// defection; CoopMemory the EWMA weight of its cooperation payoff.
	ExploreProb, CoopMemory float64
	// UseLedger enables the private-history tit-for-tat ledger
	// (titfortat.Ledger) as an admission fast path.
	UseLedger bool
	// TierBounds are the descending multitier.VecClassifier thresholds
	// for the tier distribution report.
	TierBounds []float64

	// Baselines enables the eigentrust / BLUE (and, when MirrorEngine
	// is set, core engine) comparison estimators; they run only when
	// N <= BaselineCap since they materialise pairwise state.
	Baselines   bool
	BaselineCap int
	// MirrorEngine additionally ingests the event stream into a real
	// trust engine (core.Sharded) via ApplyBatch and reports its
	// per-class reputations. Capped by MirrorCap. MirrorShards is the
	// mirror's shard count; 0 and 1 both mean one shard. Results are
	// bit-identical for every count, so a larger one only exercises the
	// parallel ingest/rebuild paths at scale.
	MirrorEngine bool
	MirrorCap    int
	MirrorShards int
}

// DefaultConfig returns the base scenario parameters shared by the
// scenario library.
func DefaultConfig() Config {
	pol := incentive.DefaultPolicy()
	pol.RefReputation = 0.8
	pol.QuotaThreshold = 0.5
	pol.MinBandwidthFraction = 0.15
	return Config{
		N:                10000,
		Seed:             1,
		Epochs:           12,
		EpochLen:         6 * time.Hour,
		Tick:             time.Second,
		MeanRequests:     2,
		Titles:           0,
		PollutedFrac:     0.25,
		ZipfExponent:     0.8,
		VoteProb:         0.6,
		OwnersCap:        24,
		SeedOwnersReal:   4,
		SeedOwnersFake:   6,
		CandidateServers: 4,
		Alpha:            0.5,
		Beta:             0.25,
		Gamma:            0.25,
		PriorRep:         0.3,
		PriorWeight:      3,
		ContribHalf:      4,
		Decay:            0.7,
		JudgeVotePrior:   1,
		JudgeVoteWeight:  0.8,
		Policy:           pol,
		WhitewashBelow:   0.25,
		ExploreProb:      0.05,
		CoopMemory:       0.2,
		TierBounds:       []float64{0.7, 0.45},
		BaselineCap:      20000,
		MirrorCap:        2000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.N < 8:
		return errors.New("massim: need at least 8 peers")
	case c.Epochs < 1:
		return errors.New("massim: need at least 1 epoch")
	case c.EpochLen <= 0:
		return errors.New("massim: non-positive epoch length")
	case c.Tick <= 0:
		return errors.New("massim: non-positive tick")
	case c.Tick > c.EpochLen:
		return errors.New("massim: tick exceeds epoch length")
	case c.MeanRequests <= 0:
		return errors.New("massim: non-positive request rate")
	case c.Titles < 0:
		return errors.New("massim: negative title count")
	case c.PollutedFrac < 0 || c.PollutedFrac > 1:
		return errors.New("massim: polluted fraction outside [0,1]")
	case c.ZipfExponent < 0:
		return errors.New("massim: negative Zipf exponent")
	case c.VoteProb < 0 || c.VoteProb > 1:
		return errors.New("massim: vote probability outside [0,1]")
	case c.OwnersCap < 2:
		return errors.New("massim: owners cap below 2")
	case c.SeedOwnersReal < 1 || c.SeedOwnersFake < 1:
		return errors.New("massim: need at least one seed owner per version")
	case c.SeedOwnersReal > c.OwnersCap || c.SeedOwnersFake > c.OwnersCap:
		return errors.New("massim: seed owners exceed owners cap")
	case c.CandidateServers < 1:
		return errors.New("massim: need at least one candidate server")
	case c.Alpha < 0 || c.Beta < 0 || c.Gamma < 0:
		return errors.New("massim: negative dimension weight")
	case !close1(c.Alpha + c.Beta + c.Gamma):
		return errors.New("massim: dimension weights do not sum to 1")
	case c.PriorRep < 0 || c.PriorRep > 1:
		return errors.New("massim: prior reputation outside [0,1]")
	case c.PriorWeight <= 0:
		return errors.New("massim: non-positive prior weight")
	case c.ContribHalf <= 0:
		return errors.New("massim: non-positive contribution half point")
	case c.Decay <= 0 || c.Decay > 1:
		return errors.New("massim: decay outside (0,1]")
	case c.JudgeVotePrior <= 0:
		return errors.New("massim: non-positive judge vote prior")
	case c.JudgeVoteWeight < 0 || c.JudgeVoteWeight > 1:
		return errors.New("massim: judge vote weight outside [0,1]")
	case c.WhitewashBelow < 0 || c.WhitewashBelow > 1:
		return errors.New("massim: whitewash threshold outside [0,1]")
	case c.ExploreProb < 0 || c.ExploreProb > 1:
		return errors.New("massim: explore probability outside [0,1]")
	case c.CoopMemory <= 0 || c.CoopMemory > 1:
		return errors.New("massim: cooperation memory outside (0,1]")
	case c.BaselineCap < 0 || c.MirrorCap < 0:
		return errors.New("massim: negative baseline cap")
	case c.MirrorShards < 0 || c.MirrorShards > core.MaxShards:
		return errors.New("massim: mirror shard count out of range")
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if len(c.TierBounds) > 0 {
		for k, b := range c.TierBounds {
			if b <= 0 || b >= 1 || (k > 0 && b >= c.TierBounds[k-1]) {
				return errors.New("massim: tier bounds must be strictly descending in (0,1)")
			}
		}
	}
	return nil
}

func close1(v float64) bool { return v > 1-1e-9 && v < 1+1e-9 }

func (c Config) titleCount() int {
	if c.Titles > 0 {
		return c.Titles
	}
	t := c.N / 10
	if t < 64 {
		t = 64
	}
	return t
}

// Event kinds on the wheel.
const (
	evRequest uint8 = iota
	evEpoch
)

// wev is the compact wheel payload: no closures, 8 bytes per event.
type wev struct {
	kind uint8
	peer int32
}

// ratingRec is one log entry kept for the baseline estimators.
type ratingRec struct {
	rater, target int32
	sat           bool
}

// Sim is one simulation instance. All peer state is struct-of-arrays:
// the per-peer footprint is ~90 bytes plus shared catalogue state, which
// is what holds 1M peers under the memory budget.
type Sim struct {
	cfg Config
	scn Scenario

	wheel  *sim.Wheel[wev]
	agents []Agent
	specs  []ClassSpec
	start  []int32 // class k occupies peers [start[k], start[k+1])

	// Per-peer state (struct of arrays).
	class    []uint8
	rng      []sim.RNG
	wSat     []float64 // credibility-weighted satisfactory ratings
	wUns     []float64 // credibility-weighted unsatisfactory ratings
	honGood  []float64 // votes agreeing with ground truth (decayed)
	honBad   []float64 // votes disagreeing (decayed)
	uploads  []float64 // serviced downloads (decayed)
	rep      []float64 // blended reputation, recomputed per epoch
	cred     []float64 // vote/rating credibility = rep * honesty
	gen      []uint32  // whitewash identity generation
	epochGot []uint32  // downloads obtained this epoch (strategic payoff)
	mode     []uint8   // strategic stance (modeCoop / modeDefect)
	coopAvg  []float32 // EWMA of cooperative per-epoch payoff

	titles catalogue
	ledger *titfortat.Ledger

	// Per-class counters.
	got, denied, fakeGot, pollGot, pollFake []uint64
	misses, rejoins                         uint64

	epochsDone int
	done       bool
	meanGap    float64 // mean request inter-arrival in virtual ns

	// Reputation trajectory: perEpochRep[e][k] = mean rep of class k.
	perEpochRep [][]float64

	log    []ratingRec // nil unless baselines collect
	mirror *engineMirror

	obs *simObs
}

// NewSim builds a simulator for the scenario. The scenario's Tune hook
// has the last word on the configuration before validation.
func NewSim(cfg Config, scn Scenario) (*Sim, error) {
	if scn == nil {
		return nil, errors.New("massim: nil scenario")
	}
	scn.Tune(&cfg)
	specs := scn.Specs()
	if len(specs) < 1 {
		return nil, fmt.Errorf("massim: scenario %s has no classes", scn.Name())
	}
	if len(specs) > 32 {
		return nil, fmt.Errorf("massim: scenario %s has %d classes, want <= 32", scn.Name(), len(specs))
	}
	seedsFakes := false
	for _, sp := range specs {
		if sp.SeedsFakes {
			seedsFakes = true
		}
	}
	if !seedsFakes {
		cfg.PollutedFrac = 0
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	n := cfg.N
	s := &Sim{
		cfg:      cfg,
		scn:      scn,
		specs:    specs,
		class:    make([]uint8, n),
		rng:      make([]sim.RNG, n),
		wSat:     make([]float64, n),
		wUns:     make([]float64, n),
		honGood:  make([]float64, n),
		honBad:   make([]float64, n),
		uploads:  make([]float64, n),
		rep:      make([]float64, n),
		cred:     make([]float64, n),
		gen:      make([]uint32, n),
		epochGot: make([]uint32, n),
		mode:     make([]uint8, n),
		coopAvg:  make([]float32, n),
		got:      make([]uint64, len(specs)),
		denied:   make([]uint64, len(specs)),
		fakeGot:  make([]uint64, len(specs)),
		pollGot:  make([]uint64, len(specs)),
		pollFake: make([]uint64, len(specs)),
		meanGap:  float64(cfg.EpochLen) / cfg.MeanRequests,
	}

	// Class assignment: contiguous blocks in spec order; the last spec
	// takes the remainder (by convention the honest majority).
	s.start = make([]int32, len(specs)+1)
	next := 0
	for k, sp := range specs {
		s.start[k] = int32(next)
		count := int(sp.Frac * float64(n))
		if k == len(specs)-1 {
			count = n - next
		}
		if count < 1 {
			return nil, fmt.Errorf("massim: class %s empty at n=%d", sp.Name, n)
		}
		if sp.Agent == nil {
			return nil, fmt.Errorf("massim: class %s has no agent", sp.Name)
		}
		for i := 0; i < count; i++ {
			s.class[next+i] = uint8(k)
		}
		next += count
		s.agents = append(s.agents, sp.Agent)
	}
	s.start[len(specs)] = int32(n)
	if specs[len(specs)-1].Adversary {
		return nil, errors.New("massim: last class must be the honest majority")
	}

	base := sim.NewRNG(cfg.Seed)
	peerBase := base.Stream("peer")
	for i := 0; i < n; i++ {
		s.rng[i] = peerBase.At(uint64(i))
	}

	setup := base.Stream("setup")
	if err := s.buildCatalogue(&setup); err != nil {
		return nil, err
	}

	if cfg.UseLedger {
		l, err := titfortat.NewLedger(n)
		if err != nil {
			return nil, err
		}
		s.ledger = l
	}
	if cfg.Baselines && n <= cfg.BaselineCap {
		s.log = make([]ratingRec, 0, 1024)
	}
	if cfg.Baselines && cfg.MirrorEngine && n <= cfg.MirrorCap {
		m, err := newEngineMirror(n, cfg.MirrorShards)
		if err != nil {
			return nil, err
		}
		s.mirror = m
	}

	// Initial reputations: the newcomer point of the blend.
	for j := 0; j < n; j++ {
		s.recomputePeer(j)
	}

	wheel, err := sim.NewWheel[wev](nil, cfg.Tick)
	if err != nil {
		return nil, err
	}
	s.wheel = wheel
	for p := 0; p < n; p++ {
		s.scheduleNext(int32(p))
	}
	wheel.Schedule(cfg.EpochLen, wev{kind: evEpoch})

	s.obs = newSimObs(scenarioLabel(scn.Name()))
	return s, nil
}

// scheduleNext books peer p's next request from its own RNG stream.
//
//mdrep:hotpath
func (s *Sim) scheduleNext(p int32) {
	gap := time.Duration(s.rng[p].ExpFloat64() * s.meanGap)
	s.wheel.Schedule(s.wheel.Now()+gap, wev{kind: evRequest, peer: p})
}

// Step executes one event. It reports false once the final epoch has
// been processed (remaining scheduled requests are abandoned).
//
//mdrep:hotpath
func (s *Sim) Step() bool {
	if s.done {
		return false
	}
	now, ev, ok := s.wheel.Next()
	if !ok {
		s.done = true
		return false
	}
	switch ev.kind {
	case evRequest:
		s.handleRequest(ev.peer)
	case evEpoch:
		s.epochTick(now)
		if s.epochsDone >= s.cfg.Epochs {
			s.done = true
			return false
		}
		s.wheel.Schedule(now+s.cfg.EpochLen, wev{kind: evEpoch})
	}
	return true
}

// Run drives a simulation to completion and returns its result.
func Run(cfg Config, scn Scenario) (*Result, error) {
	s, err := NewSim(cfg, scn)
	if err != nil {
		return nil, err
	}
	for s.Step() {
	}
	return s.Finish()
}

// handleRequest simulates one download request by peer p.
//
//mdrep:hotpath
func (s *Sim) handleRequest(p int32) {
	s.scheduleNext(p)
	s.obs.request()
	rng := &s.rng[p]
	cls := s.class[p]
	ag := s.agents[cls]

	t := s.titles.sample(rng)
	v := ag.PickVersion(s, p, t)
	if v < 0 {
		v = s.judgeVersion(t)
	} else if v == versionFake && !s.titles.hasFake(t) {
		v = versionReal
	}
	srv := s.pickServer(p, t, v)
	if srv < 0 {
		s.misses++
		return
	}
	sag := s.agents[s.class[srv]]
	if !sag.Admit(s, srv, p) {
		s.denied[cls]++
		s.obs.denied()
		return
	}

	authentic := v == versionReal
	s.got[cls]++
	s.epochGot[p]++
	s.uploads[srv]++
	polluted := s.titles.hasFake(t)
	if polluted {
		s.pollGot[cls]++
		if !authentic {
			s.pollFake[cls]++
		}
	}
	if !authentic {
		s.fakeGot[cls]++
		s.obs.fake()
	}
	if s.ledger != nil {
		_ = s.ledger.RecordDownload(int(p), int(srv), 1)
	}
	if s.mirror != nil {
		s.mirror.download(p, srv, t, v, s.wheel.Now())
	}

	if authentic || ag.KeepFake() {
		s.titles.addOwner(t, v, p, rng, s.cfg.OwnersCap)
	}
	if sat, cast := ag.Rate(s, p, srv, authentic); cast {
		s.addRating(p, srv, sat)
	}
	if polluted {
		if up, cast := ag.Vote(s, p, t, authentic); cast {
			s.titles.vote(t, v, up, s.cred[p])
			if up == authentic {
				s.honGood[p]++
			} else {
				s.honBad[p]++
			}
			if s.mirror != nil {
				s.mirror.vote(p, t, v, up, s.wheel.Now())
			}
		}
	}
	ag.AfterRequest(s, p)
}

// addRating folds a service rating into the target's accumulators at
// the rater's current credibility, and logs it for the baselines.
//
//mdrep:hotpath
func (s *Sim) addRating(rater, target int32, sat bool) {
	w := s.cred[rater]
	if sat {
		s.wSat[target] += w
	} else {
		s.wUns[target] += w
	}
	if s.log != nil {
		s.log = append(s.log, ratingRec{rater: rater, target: target, sat: sat})
	}
	if s.mirror != nil {
		s.mirror.rate(rater, target, sat)
	}
}

// Praise records a fabricated satisfactory rating — the collusion
// primitive. It costs the praiser nothing but carries only the
// praiser's credibility.
func (s *Sim) Praise(rater, target int32) {
	if rater == target {
		return
	}
	s.addRating(rater, target, true)
	s.obs.praise()
}

// judgeVersion is the honest judgement: score both versions of t by
// credibility-weighted votes blended with owner mass, pick the best
// (ties go to the real version).
func (s *Sim) judgeVersion(t int32) int8 {
	if !s.titles.hasFake(t) {
		return versionReal
	}
	ownR := len(s.titles.realOwners[t])
	ownF := len(s.titles.fakeOwners[t])
	scoreR := s.judgeScore(s.titles.vUpR[t], s.titles.vDnR[t], ownR, ownF)
	scoreF := s.judgeScore(s.titles.vUpF[t], s.titles.vDnF[t], ownF, ownR)
	if scoreF > scoreR {
		return versionFake
	}
	return versionReal
}

func (s *Sim) judgeScore(up, dn float64, own, otherOwn int) float64 {
	p := s.cfg.JudgeVotePrior
	votes := (up + p*0.5) / (up + dn + p)
	owners := float64(own) / float64(own+otherOwn)
	w := s.cfg.JudgeVoteWeight
	return w*votes + (1-w)*owners
}

// pickServer samples candidate owners of (t, v) with p's stream and
// returns the most reputable non-self owner (ties to the lower id), or
// -1 when none is available.
func (s *Sim) pickServer(p, t int32, v int8) int32 {
	owners := s.titles.owners(t, v)
	if len(owners) == 0 {
		return -1
	}
	rng := &s.rng[p]
	best := int32(-1)
	for k := 0; k < s.cfg.CandidateServers; k++ {
		cand := owners[rng.Intn(len(owners))]
		if cand == p {
			continue
		}
		if best < 0 || s.rep[cand] > s.rep[best] || (s.rep[cand] == s.rep[best] && cand < best) {
			best = cand
		}
	}
	return best
}

// AdmitByPolicy is the honest admission rule: the incentive policy maps
// the requester's reputation to a bandwidth share, used here as the
// probability of service. The draw comes from the server's stream.
func (s *Sim) AdmitByPolicy(server, requester int32) bool {
	prob := s.cfg.Policy.Bandwidth(s.rep[requester]) / s.cfg.Policy.FullBandwidth
	if prob >= 1 {
		return true
	}
	return s.rng[server].Float64() < prob
}

// ResetPeer wipes p's reputation accumulators back to the newcomer
// state — the whitewash rejoin. The peer keeps its slot (a new identity
// occupies the old index) but loses all standing.
func (s *Sim) ResetPeer(p int32) {
	s.wSat[p] = 0
	s.wUns[p] = 0
	s.honGood[p] = 0
	s.honBad[p] = 0
	s.uploads[p] = 0
	s.gen[p]++
	s.rejoins++
	s.recomputePeer(int(p))
	s.obs.rejoin()
}

// recomputePeer re-derives rep and cred from the accumulators.
func (s *Sim) recomputePeer(j int) {
	c := &s.cfg
	sq := (s.wSat[j] + c.PriorWeight*c.PriorRep) / (s.wSat[j] + s.wUns[j] + c.PriorWeight)
	hon := (s.honGood[j] + 1) / (s.honGood[j] + s.honBad[j] + 2)
	contrib := s.uploads[j] / (s.uploads[j] + c.ContribHalf)
	s.rep[j] = c.Alpha*sq + c.Beta*hon + c.Gamma*contrib
	s.cred[j] = s.rep[j] * hon
}

// epochTick is the reputation epoch boundary: agent hooks, recompute,
// trajectory recording, mirror flush, decay.
func (s *Sim) epochTick(now time.Duration) {
	span := s.obs.epochSpan()
	n := s.cfg.N
	// Agent epoch hooks run first, reading last epoch's reputations
	// and payoffs (whitewash rejoin decisions, strategic stance moves).
	for p := 0; p < n; p++ {
		s.agents[s.class[p]].EpochTick(s, int32(p))
	}
	for j := 0; j < n; j++ {
		s.recomputePeer(j)
	}
	// Record the per-class mean reputation trajectory.
	row := make([]float64, len(s.specs))
	for k := range s.specs {
		lo, hi := int(s.start[k]), int(s.start[k+1])
		sum := 0.0
		for j := lo; j < hi; j++ {
			sum += s.rep[j]
		}
		row[k] = sum / float64(hi-lo)
	}
	s.perEpochRep = append(s.perEpochRep, row)
	if s.mirror != nil {
		s.mirror.flush(now)
	}
	// Decay bounds every accumulator's history.
	d := s.cfg.Decay
	for j := 0; j < n; j++ {
		s.wSat[j] *= d
		s.wUns[j] *= d
		s.honGood[j] *= d
		s.honBad[j] *= d
		s.uploads[j] *= d
		s.epochGot[j] = 0
	}
	s.titles.decay(d)
	s.epochsDone++
	s.obs.epoch()
	span.End()
}

// Rep returns peer p's current reputation (read-only agent hook API).
func (s *Sim) Rep(p int32) float64 { return s.rep[p] }

// Cred returns peer p's current credibility.
func (s *Sim) Cred(p int32) float64 { return s.cred[p] }

// RNGFor returns peer p's private RNG stream.
func (s *Sim) RNGFor(p int32) *sim.RNG { return &s.rng[p] }

// Config returns the effective (scenario-tuned) configuration.
func (s *Sim) Config() Config { return s.cfg }

// EpochGot returns how many downloads p obtained this epoch.
func (s *Sim) EpochGot(p int32) uint32 { return s.epochGot[p] }

// Ledger returns the tit-for-tat ledger, or nil when disabled.
func (s *Sim) Ledger() *titfortat.Ledger { return s.ledger }

// ClassRange returns the peer index range [lo, hi) of class k.
func (s *Sim) ClassRange(k int) (lo, hi int32) {
	return s.start[k], s.start[k+1]
}

// ClassOf returns the class index of peer p.
func (s *Sim) ClassOf(p int32) int { return int(s.class[p]) }

// Mode returns strategic peer p's stance array slot.
func (s *Sim) Mode(p int32) uint8 { return s.mode[p] }

// SetMode sets strategic peer p's stance.
func (s *Sim) SetMode(p int32, m uint8) { s.mode[p] = m }

// CoopAvg returns strategic peer p's cooperation payoff EWMA.
func (s *Sim) CoopAvg(p int32) float32 { return s.coopAvg[p] }

// SetCoopAvg updates strategic peer p's cooperation payoff EWMA.
func (s *Sim) SetCoopAvg(p int32, v float32) { s.coopAvg[p] = v }
