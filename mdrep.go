package mdrep

import (
	"fmt"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/eval"
	"mdrep/internal/incentive"
	"mdrep/internal/obs"
)

// FileID identifies a file by content hash.
type FileID = eval.FileID

// OwnerEvaluation is one evaluator's published opinion of a file, as
// retrieved from the file's index peer.
type OwnerEvaluation = core.OwnerEvaluation

// Judgement is the outcome of judging a file before download.
type Judgement = core.Judgement

// Option customises a System.
type Option func(*options) error

type options struct {
	rep    core.Config
	policy incentive.Policy
	reg    *MetricsRegistry
	clock  func() time.Time
	shards int
}

// WithWeights sets the dimension weights α (file), β (download volume) and
// γ (user rating) of Eq. (7); they must sum to 1.
func WithWeights(alpha, beta, gamma float64) Option {
	return func(o *options) error {
		o.rep.Alpha, o.rep.Beta, o.rep.Gamma = alpha, beta, gamma
		return nil
	}
}

// WithBlend sets the implicit/explicit evaluation weights η and ρ of
// Eq. (1); they must sum to 1.
func WithBlend(eta, rho float64) Option {
	return func(o *options) error {
		o.rep.Blend = eval.Blend{Eta: eta, Rho: rho}
		return nil
	}
}

// WithSteps sets the multi-trust depth n of Eq. (8).
func WithSteps(n int) Option {
	return func(o *options) error {
		o.rep.Steps = n
		return nil
	}
}

// WithWindow sets the evaluation retention interval (§4.3); zero keeps
// evaluations forever.
func WithWindow(w time.Duration) Option {
	return func(o *options) error {
		o.rep.Window = w
		return nil
	}
}

// WithFakeThreshold sets the local R_f threshold below which a file is
// judged fake (§3.3).
func WithFakeThreshold(t float64) Option {
	return func(o *options) error {
		o.rep.FakeThreshold = t
		return nil
	}
}

// WithRetention sets the retention-time → implicit-evaluation mapping.
func WithRetention(saturation time.Duration, floor float64) Option {
	return func(o *options) error {
		o.rep.Retention = eval.RetentionModel{Saturation: saturation, Floor: floor}
		return nil
	}
}

// WithMetrics publishes the engine's observability surface — matrix
// build and re-freeze timings, dirty-row counts, reputation-walk
// latency — into reg. Timings use clock; a nil clock reads the wall
// clock, while tests pass a fake clock for deterministic durations.
// Instrumentation never feeds time into reputation state, so results
// stay bit-identical with or without it.
func WithMetrics(reg *MetricsRegistry, clock func() time.Time) Option {
	return func(o *options) error {
		o.reg = reg
		o.clock = clock
		return nil
	}
}

// WithShards partitions the trust core across k shards (consistent
// hash on peer index): mutations for different shards proceed in
// parallel, batches group-commit per shard, and rebuilds run one worker
// per shard — all with bit-identical results for any k. Values of 0 or
// 1 mean one shard, the default.
func WithShards(k int) Option {
	return func(o *options) error {
		if k < 0 || k > core.MaxShards {
			return fmt.Errorf("shard count %d outside [0, %d]", k, core.MaxShards)
		}
		o.shards = k
		return nil
	}
}

// WithIncentivePolicy replaces the service-differentiation policy (§3.4).
func WithIncentivePolicy(p incentive.Policy) Option {
	return func(o *options) error {
		if err := p.Validate(); err != nil {
			return err
		}
		o.policy = p
		return nil
	}
}

// System is the public face of the reputation system for a population of
// peers indexed [0, n), backed by a core.Sharded trust core (one shard
// unless built WithShards). It is safe for concurrent use: mutations
// serialise behind their owner shard's lock while reputation queries
// walk an immutable frozen snapshot of the trust matrix, so queries
// from many goroutines proceed in parallel.
type System struct {
	engine *core.Sharded
	policy incentive.Policy
}

// NewSystem builds a reputation system for n peers with the paper's
// default parameters, customised by opts.
func NewSystem(n int, opts ...Option) (*System, error) {
	o := options{rep: core.DefaultConfig(), policy: incentive.DefaultPolicy()}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, fmt.Errorf("mdrep: %w", err)
		}
	}
	var clock obs.Clock
	if o.reg != nil {
		clock = obs.Clock(o.clock)
		if o.clock == nil {
			clock = obs.Clock(obs.WallClock)
		}
	}
	k := max(o.shards, 1)
	engine, err := core.NewSharded(n, k, o.rep)
	if err != nil {
		return nil, err
	}
	if o.reg != nil {
		engine.SetObserver(core.NewEngineObs(o.reg, clock))
		engine.SetShardObserver(core.NewShardedObs(o.reg, clock, k))
	}
	return &System{engine: engine, policy: o.policy}, nil
}

// N returns the population size.
func (s *System) N() int { return s.engine.N() }

// RecordDownload registers that downloader fetched file f (size bytes)
// from uploader at virtual time now.
func (s *System) RecordDownload(downloader, uploader int, f FileID, size int64, now time.Duration) error {
	return s.engine.RecordDownload(downloader, uploader, f, size, now)
}

// Vote records peer p's explicit evaluation (in [0,1]) of file f.
func (s *System) Vote(p int, f FileID, value float64, now time.Duration) error {
	return s.engine.Vote(p, f, value, now)
}

// ObserveRetention records an implicit evaluation from how long peer p
// kept file f and whether it deleted it.
func (s *System) ObserveRetention(p int, f FileID, retention time.Duration, deleted bool, now time.Duration) error {
	return s.engine.ObserveRetention(p, f, retention, deleted, now)
}

// Evaluation returns peer p's current blended evaluation of f.
func (s *System) Evaluation(p int, f FileID, now time.Duration) (float64, bool) {
	return s.engine.Evaluation(p, f, now)
}

// RateUser records an explicit user rating UT (Eq. 6).
func (s *System) RateUser(i, j int, value float64) error {
	return s.engine.RateUser(i, j, value)
}

// AddFriend gives j the friend-list trust in i's view.
func (s *System) AddFriend(i, j int) error { return s.engine.AddFriend(i, j) }

// Blacklist permanently zeroes j's user trust in i's view.
func (s *System) Blacklist(i, j int) error { return s.engine.Blacklist(i, j) }

// Reputations returns peer i's multi-trust reputation view (row i of
// RM = TM^n): a map from peer to trust mass.
func (s *System) Reputations(i int, now time.Duration) (map[int]float64, error) {
	return s.engine.Reputations(i, now)
}

// JudgeFile computes R_f (Eq. 9) for requester i over the file's
// evaluator opinions and applies the fake threshold.
func (s *System) JudgeFile(i int, owners []OwnerEvaluation, now time.Duration) (Judgement, error) {
	return s.engine.JudgeFile(i, owners, now)
}

// CollectOwnerEvaluations gathers the live evaluations of f held by the
// given peers — the simulation-side stand-in for a DHT retrieval.
func (s *System) CollectOwnerEvaluations(f FileID, owners []int, now time.Duration) []OwnerEvaluation {
	return s.engine.CollectOwnerEvaluations(f, owners, now)
}

// Compact drops expired evaluations (§4.3); call periodically in long
// simulations.
func (s *System) Compact(now time.Duration) { s.engine.Compact(now) }

// NewUploadQueue returns a service-differentiation queue (§3.4) under the
// system's incentive policy, for one uploading peer.
func (s *System) NewUploadQueue() (*incentive.Queue, error) {
	return incentive.NewQueue(s.policy)
}

// NewUploadServer returns a serving simulation of one uploader under the
// system's incentive policy.
func (s *System) NewUploadServer() (*incentive.Server, error) {
	return incentive.NewServer(s.policy)
}

// Policy returns the system's incentive policy.
func (s *System) Policy() incentive.Policy { return s.policy }
