package core

import (
	"strconv"

	"mdrep/internal/metrics"
	"mdrep/internal/obs"
)

// ShardedObs is the sharded facade's own metrics surface: group-commit
// batch and per-shard event counts on the ingest path, rebuild and
// per-shard rebuild latency, and the wait to acquire every shard lock
// (writer contention made visible). TM refreezes and dimension builds
// are EngineObs series. All series carrying a per-shard dimension use a
// "shard" label so dashboards can spot a hot shard. A nil observer
// disables everything, as EngineObs.
type ShardedObs struct {
	tracer *obs.Tracer

	batches  *metrics.Counter     // sharded_ingest_batches_total
	events   []*metrics.Counter   // sharded_ingest_events_total{shard=i}
	rebuild  *metrics.Histogram   // sharded_rebuild_seconds
	perShard []*metrics.Histogram // sharded_shard_rebuild_seconds{shard=i}
	lockWait *metrics.Histogram   // sharded_rebuild_lock_wait_seconds
}

// NewShardedObs registers the sharded metric families for k shards. A
// nil registry returns a nil (disabled) observer; a nil clock keeps the
// counters but disables latency spans.
func NewShardedObs(reg *metrics.Registry, clock obs.Clock, k int) *ShardedObs {
	if reg == nil {
		return nil
	}
	o := &ShardedObs{
		tracer:   obs.NewTracer(clock),
		batches:  reg.Counter("sharded_ingest_batches_total"),
		events:   make([]*metrics.Counter, k),
		rebuild:  reg.Histogram("sharded_rebuild_seconds", metrics.DurationBuckets),
		perShard: make([]*metrics.Histogram, k),
		lockWait: reg.Histogram("sharded_rebuild_lock_wait_seconds", metrics.DurationBuckets),
	}
	for i := 0; i < k; i++ {
		o.events[i] = reg.Counter("sharded_ingest_events_total", "shard", shardLabel(i))
		o.perShard[i] = reg.Histogram("sharded_shard_rebuild_seconds", metrics.DurationBuckets, "shard", shardLabel(i))
	}
	return o
}

// shardLabel returns the canonical metric label for shard index i. The
// set is bounded by construction: NewSharded rejects k > MaxShards
// (256), and anything outside that range collapses to one overflow
// label rather than minting a series per bogus index.
//
//mdrep:labelset
func shardLabel(i int) string {
	if i < 0 || i >= MaxShards {
		return "overflow"
	}
	return strconv.Itoa(i)
}

// spanRebuild times one stop-the-world rebuild; nil-safe.
func (o *ShardedObs) spanRebuild() obs.Span {
	if o == nil {
		return obs.Span{}
	}
	return o.tracer.Start(o.rebuild)
}

// spanShardRebuild times one shard's recompute+refreeze; nil-safe.
func (o *ShardedObs) spanShardRebuild(si int) obs.Span {
	if o == nil || si >= len(o.perShard) {
		return obs.Span{}
	}
	return o.tracer.Start(o.perShard[si])
}

// spanLockWait times the acquisition of all shard locks; nil-safe.
func (o *ShardedObs) spanLockWait() obs.Span {
	if o == nil {
		return obs.Span{}
	}
	return o.tracer.Start(o.lockWait)
}
