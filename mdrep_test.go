package mdrep

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/incentive"
	"mdrep/internal/metrics"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(10)
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != 10 {
		t.Fatalf("N = %d", sys.N())
	}
}

func TestNewSystemOptionValidation(t *testing.T) {
	cases := [][]Option{
		{WithWeights(0.5, 0.5, 0.5)},
		{WithBlend(0.9, 0.9)},
		{WithSteps(0)},
		{WithWindow(-time.Second)},
		{WithFakeThreshold(2)},
		{WithIncentivePolicy(incentive.Policy{})},
	}
	for i, opts := range cases {
		if _, err := NewSystem(5, opts...); err == nil {
			t.Fatalf("option set %d accepted", i)
		}
	}
}

func TestSystemEndToEndJudgement(t *testing.T) {
	sys, err := NewSystem(4,
		WithWeights(1, 0, 0),
		WithBlend(0, 1),
		WithSteps(1),
		WithFakeThreshold(0.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Peers 0 and 1 agree on history; peer 2 is a liar.
	now := time.Duration(0)
	mustVote := func(p int, f FileID, v float64) {
		t.Helper()
		if err := sys.Vote(p, f, v, now); err != nil {
			t.Fatal(err)
		}
	}
	mustVote(0, "shared-a", 0.9)
	mustVote(1, "shared-a", 0.9)
	mustVote(2, "shared-a", 0.1)

	owners := []OwnerEvaluation{
		{Owner: 1, Value: 0.1}, // trusted peer says fake
		{Owner: 2, Value: 1.0}, // liar promotes
	}
	j, err := sys.JudgeFile(0, owners, now)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Known || !j.Fake {
		t.Fatalf("fake not identified: %+v", j)
	}
}

func TestSystemReputationsAndRetention(t *testing.T) {
	sys, err := NewSystem(3, WithRetention(24*time.Hour, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	if err := sys.RecordDownload(0, 1, "f", 1000, now); err != nil {
		t.Fatal(err)
	}
	if err := sys.ObserveRetention(0, "f", 48*time.Hour, false, now); err != nil {
		t.Fatal(err)
	}
	v, ok := sys.Evaluation(0, "f", now)
	if !ok || v != 1 {
		t.Fatalf("retention evaluation = %v, %v", v, ok)
	}
	reps, err := sys.Reputations(0, now)
	if err != nil {
		t.Fatal(err)
	}
	if reps[1] <= 0 {
		t.Fatalf("download earned no trust: %v", reps)
	}
}

func TestSystemUserRatings(t *testing.T) {
	sys, err := NewSystem(3, WithWeights(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddFriend(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.RateUser(0, 2, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := sys.Blacklist(0, 2); err != nil {
		t.Fatal(err)
	}
	reps, err := sys.Reputations(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(reps[1]-1) > 1e-9 {
		t.Fatalf("friend reputation %v, want 1 after blacklist", reps[1])
	}
	if reps[2] != 0 {
		t.Fatalf("blacklisted reputation %v", reps[2])
	}
}

func TestSystemWindowCompact(t *testing.T) {
	sys, err := NewSystem(2, WithWindow(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Vote(0, "f", 0.8, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.Evaluation(0, "f", 2*time.Hour); ok {
		t.Fatal("expired evaluation visible")
	}
	sys.Compact(2 * time.Hour)
	got := sys.CollectOwnerEvaluations("f", []int{0}, 2*time.Hour)
	if len(got) != 0 {
		t.Fatalf("expired evaluation collected: %+v", got)
	}
}

func TestSystemUploadQueue(t *testing.T) {
	sys, err := NewSystem(3)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.NewUploadQueue()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Push(incentive.Request{Requester: 1, Arrival: 0, Reputation: 0}); err != nil {
		t.Fatal(err)
	}
	pol := sys.Policy()
	if err := q.Push(incentive.Request{
		Requester: 2, Arrival: pol.MaxOffset / 2, Reputation: pol.RefReputation,
	}); err != nil {
		t.Fatal(err)
	}
	first, ok := q.Pop()
	if !ok || first.Requester != 2 {
		t.Fatalf("reputation offset inert: first = %+v", first)
	}
	srv, err := sys.NewUploadServer()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Enqueue(incentive.Request{Requester: 1, Size: 1 << 20, Reputation: 1}); err != nil {
		t.Fatal(err)
	}
	if done := srv.ServeAll(); len(done) != 1 {
		t.Fatalf("served %d", len(done))
	}
}

func TestSystemWithMetrics(t *testing.T) {
	reg := NewMetricsRegistry()
	tick := time.Unix(0, 0)
	clock := func() time.Time {
		tick = tick.Add(25 * time.Microsecond)
		return tick
	}
	sys, err := NewSystem(4, WithMetrics(reg, clock))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Vote(0, "f", 0.8, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Vote(1, "f", 0.9, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Reputations(0, 0); err != nil {
		t.Fatal(err)
	}
	for _, dim := range []string{"fm", "dm", "um"} {
		h := reg.Histogram("engine_build_seconds", metrics.DurationBuckets, "dim", dim)
		if h.Count() == 0 {
			t.Errorf("no %s build spans recorded", dim)
		}
		if h.Sum() <= 0 {
			t.Errorf("%s build time zero with a ticking clock", dim)
		}
	}
	if got := reg.Counter("engine_tm_refreeze_total").Load(); got == 0 {
		t.Error("no TM re-freezes counted")
	}
	if reg.Histogram("engine_reputation_walk_seconds", metrics.DurationBuckets).Count() == 0 {
		t.Error("no reputation walk spans recorded")
	}
}

// shardParityScript drives every System mutator deterministically.
func shardParityScript(t *testing.T, sys *System) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 6; r++ {
		now := time.Duration(r) * time.Minute
		for p := 0; p < sys.N(); p++ {
			f := FileID([]byte{'f', byte('0' + (p+r)%4)})
			must(sys.Vote(p, f, float64((p*7+r)%10)/10, now))
			must(sys.ObserveRetention(p, f, time.Duration(r)*time.Hour, r%3 == 0, now))
			q := (p + 1 + r) % sys.N()
			if q != p {
				must(sys.RecordDownload(p, q, f, int64(1000*(r+1)), now))
				must(sys.RateUser(p, q, float64((p+r)%10)/10))
			}
		}
	}
	must(sys.AddFriend(0, 1))
	must(sys.Blacklist(2, 3))
	sys.Compact(3 * time.Minute)
}

// TestWithShardsParity proves the shard count is purely a throughput
// choice: the same script through a default one-shard and a 4-shard
// System yields bit-identical reputations, evaluations and judgements.
func TestWithShardsParity(t *testing.T) {
	opts := []Option{WithWindow(2 * time.Hour), WithFakeThreshold(0.4)}
	plain, err := NewSystem(10, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSystem(10, append([]Option{WithShards(4)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if k := sharded.engine.K(); k != 4 {
		t.Fatalf("WithShards(4) backed by %d shards, want 4", k)
	}
	shardParityScript(t, plain)
	shardParityScript(t, sharded)
	now := 10 * time.Minute
	for p := 0; p < plain.N(); p++ {
		a, err := plain.Reputations(p, now)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sharded.Reputations(p, now)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("peer %d: %d vs %d reputation entries", p, len(a), len(b))
		}
		for q, v := range a {
			if b[q] != v {
				t.Fatalf("peer %d: reputation of %d differs: %v vs %v", p, q, v, b[q])
			}
		}
	}
	va, oka := plain.Evaluation(1, FileID("f1"), now)
	vb, okb := sharded.Evaluation(1, FileID("f1"), now)
	if va != vb || oka != okb {
		t.Fatalf("evaluation differs: (%v,%v) vs (%v,%v)", va, oka, vb, okb)
	}
	owners := plain.CollectOwnerEvaluations(FileID("f1"), []int{0, 1, 2}, now)
	ja, err := plain.JudgeFile(4, owners, now)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := sharded.JudgeFile(4, sharded.CollectOwnerEvaluations(FileID("f1"), []int{0, 1, 2}, now), now)
	if err != nil {
		t.Fatal(err)
	}
	if ja != jb {
		t.Fatalf("judgement differs: %+v vs %+v", ja, jb)
	}
}

func TestWithShardsValidation(t *testing.T) {
	if _, err := NewSystem(5, WithShards(-1)); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := NewSystem(5, WithShards(core.MaxShards+1)); err == nil {
		t.Fatal("oversized shard count accepted")
	}
	sys, err := NewSystem(5, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if k := sys.engine.K(); k != 1 {
		t.Fatalf("WithShards(1) backed by %d shards, want 1", k)
	}
}

// TestWithShardsMetrics checks the per-shard observability surface is
// wired when both WithShards and WithMetrics are given.
func TestWithShardsMetrics(t *testing.T) {
	reg := NewMetricsRegistry()
	// Parallel shard rebuild workers read the clock concurrently, so the
	// fake must be thread-safe.
	var ticks atomic.Int64
	clock := func() time.Time {
		return time.Unix(0, ticks.Add(1)*int64(25*time.Microsecond))
	}
	sys, err := NewSystem(6, WithShards(3), WithMetrics(reg, clock))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Vote(0, "f", 0.8, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Reputations(0, 0); err != nil {
		t.Fatal(err)
	}
	if reg.Histogram("sharded_rebuild_seconds", metrics.DurationBuckets).Count() == 0 {
		t.Error("no sharded rebuild spans recorded")
	}
	if reg.Histogram("engine_reputation_walk_seconds", metrics.DurationBuckets).Count() == 0 {
		t.Error("no reputation walk spans recorded")
	}
}
