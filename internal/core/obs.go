package core

import (
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
)

// EngineObs is the trust core's metrics surface: per-dimension build
// latency and dirty-row volume, TM patch latency and count, and
// reputation power-walk timing. Sharded emits the series
// through the nil-safe helpers below, so a core with a nil observer pays
// one nil check per build step. The observer carries no
// engine state, so attaching or detaching it cannot perturb replay
// determinism — the clock is only ever read around builds, never fed
// into them.
type EngineObs struct {
	tracer *obs.Tracer

	build   [3]*metrics.Histogram // engine_build_seconds{dim=fm|dm|um}, indexed by dimFM..dimUM
	dirty   [3]*metrics.Counter   // engine_dirty_rows_total{dim=fm|dm|um}
	repWalk *metrics.Histogram    // Reputations row-walk latency

	refreeze  *metrics.Histogram // TM patch (WeightedSum) latency
	refreezes *metrics.Counter   // rebuilds that patched TM
}

// NewEngineObs registers the engine metric families in reg and returns
// an observer timed by clock. A nil registry returns a nil (disabled)
// observer; a nil clock keeps the counters but disables the latency
// spans, which is what deterministic simulations want.
func NewEngineObs(reg *metrics.Registry, clock obs.Clock) *EngineObs {
	if reg == nil {
		return nil
	}
	return &EngineObs{
		tracer: obs.NewTracer(clock),
		build: [3]*metrics.Histogram{
			dimFM: reg.Histogram("engine_build_seconds", metrics.DurationBuckets, "dim", "fm"),
			dimDM: reg.Histogram("engine_build_seconds", metrics.DurationBuckets, "dim", "dm"),
			dimUM: reg.Histogram("engine_build_seconds", metrics.DurationBuckets, "dim", "um"),
		},
		dirty: [3]*metrics.Counter{
			dimFM: reg.Counter("engine_dirty_rows_total", "dim", "fm"),
			dimDM: reg.Counter("engine_dirty_rows_total", "dim", "dm"),
			dimUM: reg.Counter("engine_dirty_rows_total", "dim", "um"),
		},
		repWalk:   reg.Histogram("engine_reputation_walk_seconds", metrics.DurationBuckets),
		refreeze:  reg.Histogram("engine_tm_refreeze_seconds", metrics.DurationBuckets),
		refreezes: reg.Counter("engine_tm_refreeze_total"),
	}
}

// startBuild counts the rows one build of dimension d recomputes and
// opens its build span; nil-safe.
func (o *EngineObs) startBuild(d int, rows uint64) obs.Span {
	if o == nil {
		return obs.Span{}
	}
	o.dirty[d].Add(rows)
	return o.tracer.Start(o.build[d])
}

// startRefreeze opens a TM patch span; nil-safe.
func (o *EngineObs) startRefreeze() obs.Span {
	if o == nil {
		return obs.Span{}
	}
	return o.tracer.Start(o.refreeze)
}

// refrozen ends a refreeze span and counts the patch; nil-safe.
func (o *EngineObs) refrozen(sp obs.Span) {
	sp.End()
	if o != nil {
		o.refreezes.Inc()
	}
}

// spanRepWalk starts a reputation-walk span; nil-safe so lock-free query
// paths can call it unconditionally.
func (o *EngineObs) spanRepWalk() obs.Span {
	if o == nil {
		return obs.Span{}
	}
	return o.tracer.Start(o.repWalk)
}
