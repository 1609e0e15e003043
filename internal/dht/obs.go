package dht

import (
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
)

// rpcObs is the RetryClient's latency surface: one histogram per RPC op
// (spanning all attempts and backoff of one logical call), plus the
// retry counters that Instrument rebinds onto the shared registry.
type rpcObs struct {
	tracer   *obs.Tracer
	find     *metrics.Histogram
	succ     *metrics.Histogram
	pred     *metrics.Histogram
	notify   *metrics.Histogram
	ping     *metrics.Histogram
	store    *metrics.Histogram
	retrieve *metrics.Histogram
}

// hist maps an op name from do() to its histogram.
func (o *rpcObs) hist(name string) *metrics.Histogram {
	switch name {
	case "find_successor":
		return o.find
	case "successors":
		return o.succ
	case "predecessor":
		return o.pred
	case "notify":
		return o.notify
	case "ping":
		return o.ping
	case "store":
		return o.store
	case "retrieve":
		return o.retrieve
	}
	return nil
}

func (o *rpcObs) span(name string) obs.Span {
	if o == nil {
		return obs.Span{}
	}
	return o.tracer.Start(o.hist(name))
}

// Instrument rebinds the client's retry counters onto reg — as
// dht_rpc_attempts_total, dht_rpc_retries_total, dht_rpc_exhausted_total
// with the given extra label pairs — and starts recording per-op latency
// into dht_rpc_seconds{op=...}, timed by clock. Call before the client
// is shared across goroutines; earlier counts (on the construction-time
// private registry) are not carried over.
func (c *RetryClient) Instrument(reg *metrics.Registry, clock obs.Clock, labels ...string) {
	if reg == nil {
		return
	}
	c.Metrics = RetryMetrics{
		Attempts:  reg.Counter("dht_rpc_attempts_total", labels...),
		Retries:   reg.Counter("dht_rpc_retries_total", labels...),
		Exhausted: reg.Counter("dht_rpc_exhausted_total", labels...),
	}
	h := func(op string) *metrics.Histogram {
		return reg.Histogram("dht_rpc_seconds", metrics.DurationBuckets, append([]string{"op", op}, labels...)...)
	}
	c.obs = &rpcObs{
		tracer:   obs.NewTracer(clock),
		find:     h("find_successor"),
		succ:     h("successors"),
		pred:     h("predecessor"),
		notify:   h("notify"),
		ping:     h("ping"),
		store:    h("store"),
		retrieve: h("retrieve"),
	}
}

// nodeObs is the ring-maintenance surface of a Node: stabilisation
// rounds, forwarded lookup hops, how many nodes a Retrieve had to walk
// (root plus replicas) before answering, and how it found the root.
type nodeObs struct {
	stabilizations *metrics.Counter   // dht_stabilize_rounds_total
	lookupHops     *metrics.Counter   // dht_lookup_hops_total
	walkDepth      *metrics.Histogram // dht_replica_walk_depth
	rootOwn        *metrics.Counter   // dht_retrieve_root_total{via="own"}
	rootMemo       *metrics.Counter   // dht_retrieve_root_total{via="memo"}
	rootLookup     *metrics.Counter   // dht_retrieve_root_total{via="lookup"}
}

// root maps a via value from Retrieve to its counter.
func (o *nodeObs) root(via string) *metrics.Counter {
	switch via {
	case viaOwn:
		return o.rootOwn
	case viaMemo:
		return o.rootMemo
	}
	return o.rootLookup
}

// Instrument publishes the node's ring metrics into reg. Call before the
// node starts serving.
func (n *Node) Instrument(reg *metrics.Registry, labels ...string) {
	if reg == nil {
		return
	}
	root := func(via string) *metrics.Counter {
		return reg.Counter("dht_retrieve_root_total", append([]string{"via", via}, labels...)...)
	}
	n.obs = &nodeObs{
		stabilizations: reg.Counter("dht_stabilize_rounds_total", labels...),
		lookupHops:     reg.Counter("dht_lookup_hops_total", labels...),
		walkDepth:      reg.Histogram("dht_replica_walk_depth", []float64{1, 2, 3, 4, 6, 8, 12, 16}, labels...),
		rootOwn:        root(viaOwn),
		rootMemo:       root(viaMemo),
		rootLookup:     root(viaLookup),
	}
}
