package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run. Spans come only from the benchmark: wrappers around the
// interfaces it injects into the stack (dht.Client, peer.Network, the
// exchange source func, walk.Fetcher, walk.RowSource) and direct timing
// of the layer calls it makes. The program's own tracing stays off.
// Spans live in memory and are written out when the run ends. One op is
// in flight at a time, so a span belongs to the op whose interval it
// falls in — including RPCs a server forwards on its own goroutine.

// kind is a span type. Its level orders nesting: a span's children are
// the spans of higher level inside its interval.
type kind uint8

const (
	kOp kind = iota
	kDHTPublish
	kDHTRetrieve
	kWalkFetch
	kDHTRPC
	kDHTStoreRPC
	kPeerSync
	kPeerFetch
	kPeerServe
	kPeerJudge
	kWalkEstimate
	kJournalApply
	kJournalOpen
	kCoreTM
	kCoreRMRow
	kCoreJudge
	numKinds
)

var kinds = [numKinds]struct {
	name, layer string
	level       int
}{
	kOp:           {"op", "driver", 0},
	kDHTPublish:   {"dht.publish", "dht", 1},
	kDHTRetrieve:  {"dht.retrieve", "dht", 2},
	kWalkFetch:    {"walk.fetch", "dht", 2}, // the walk's cache-miss Node.Retrieve
	kDHTRPC:       {"dht.rpc", "dht", 3},
	kDHTStoreRPC:  {"dht.store_rpc", "dht", 3},
	kPeerSync:     {"peer.sync", "peer", 1},
	kPeerFetch:    {"peer.fetch", "peer", 2},
	kPeerServe:    {"peer.serve_sign", "peer", 4},
	kPeerJudge:    {"peer.judge", "peer", 1},
	kWalkEstimate: {"walk.estimate", "walk", 1},
	kJournalApply: {"journal.apply_batch", "journal", 1},
	kJournalOpen:  {"journal.open", "journal", 1},
	kCoreTM:       {"core.tm", "core", 1},
	kCoreRMRow:    {"core.rm_row", "core", 1},
	kCoreJudge:    {"core.judge", "core", 1},
}

// layers in report order; "driver" is the op's own residual.
var layers = []string{"dht", "peer", "walk", "journal", "core", "driver"}

// counter is a count the wrappers keep beside their spans.
type counter uint8

const (
	cSigns    counter = iota // signatures made serving evaluation lists
	cVerifies                // signature checks on the judging peer
	cRowCalls                // walk.RowSource.Row calls
	numCounters
)

type span struct {
	op         int32 // -1 outside ops (set-up)
	kind       kind
	start, end int64 // ns since the tracer's base
}

// tracer records spans and counts. A nil tracer, or one switched off,
// makes every wrapper a pass-through.
type tracer struct {
	base   time.Time
	on     atomic.Bool
	op     atomic.Int32
	mu     sync.Mutex
	spans  []span
	counts [numCounters]atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.op.Store(-1)
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a span of kind k from start until now.
func (t *tracer) add(k kind, start int64) {
	end := t.now()
	op := t.op.Load()
	t.mu.Lock()
	t.spans = append(t.spans, span{op: op, kind: k, start: start, end: end})
	t.mu.Unlock()
}

func (t *tracer) count(c counter, n int) { t.counts[c].Add(int64(n)) }

func (t *tracer) beginOp(i int) int64 {
	t.op.Store(int32(i))
	return t.now()
}

func (t *tracer) endOp(start int64) {
	t.add(kOp, start)
	t.op.Store(-1)
}

// timed runs fn inside a span of kind k when tracing is on.
func timed[T any](t *tracer, k kind, fn func() (T, error)) (T, error) {
	if !t.enabled() {
		return fn()
	}
	start := t.now()
	v, err := fn()
	t.add(k, start)
	return v, err
}

// Program-side counter keys an instance reports from counters().
const (
	ctrLookupHops = "dht.lookup_hops"      // Σ Node.LookupHops over the ring
	ctrFrameBytes = "peer.frame_bytes_in"  // exchange bytes the judge received
	ctrFsyncs     = "journal.fsyncs"       // journal_fsync_total
	ctrSnapshots  = "journal.snapshots"    // journal_snapshot_total
	ctrWALBytes   = "journal.wal_bytes"    // WAL bytes appended by non-snapshot ops
	ctrWALEvents  = "journal.wal_events"   // events in those ops
	ctrDirtyRows  = "core.tm_rows_changed" // TM rows that differ from the previous op's TM
)

// executeTraced runs a workload's traced variant: one traced set-up, a
// traced phase of w.traceOps ops, then an untraced phase of opt.seconds/2
// whose throughput gives the tracing overhead. The traced phase comes
// first so it always starts from the state set-up left.
func executeTraced(w workload, opt options, runDir string, cond conditions, out io.Writer) (*result, error) {
	tr := newTracer()
	tr.on.Store(true)
	inst, err := w.setup(&env{seed: opt.seed, dir: filepath.Join(runDir, "setup-0"), tr: tr})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { _ = inst.close() }()

	before := snapshotCounters(inst, tr)
	traced := measure(inst, 0, func(done int, _ time.Duration) bool { return done >= w.traceOps }, tr)
	after := snapshotCounters(inst, tr)
	tr.on.Store(false)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain := measure(inst, w.traceOps, func(_ int, elapsed time.Duration) bool { return elapsed >= opt.seconds/2 }, nil)
	runtime.ReadMemStats(&ms1)

	for _, ph := range []phase{traced, plain} {
		if ph.firstErr != nil {
			fmt.Fprintf(out, "first failed op: %v\n", ph.firstErr)
		}
	}
	failed, detail, err := inst.check()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	fmt.Fprintf(out, "oracle: %s\n", detail)
	failed += traced.failed + plain.failed
	attempted := len(traced.lat) + len(plain.lat)
	if failed > attempted {
		failed = attempted
	}

	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	a := attribute(spans)
	m := layerMetrics(a, spans, before, after, len(traced.lat))
	nPlain := float64(len(plain.lat))
	m["runtime.alloc_kb_per_op"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / nPlain, "KiB"}
	m["runtime.gc_cycles_per_op"] = metric{float64(ms1.NumGC-ms0.NumGC) / nPlain, "count"}
	tracedTput := summarize(traced.lat).throughput
	plainTput := summarize(plain.lat).throughput
	m["trace.overhead_pct"] = metric{100 * (plainTput - tracedTput) / plainTput, "%"}

	table := layerTable(w.name, opt.seed, a, len(traced.lat), tracedTput, plainTput, cond)
	fmt.Fprint(out, table)
	if err := writeTrace(opt.outDir, w.name, opt.seed, spans, table); err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// snapshotCounters merges the instance's program-side counters with the
// wrappers' counts and the kernel's.
func snapshotCounters(inst instance, tr *tracer) map[string]float64 {
	c := inst.counters()
	c["identity.signs"] = float64(tr.counts[cSigns].Load())
	c["identity.verifies"] = float64(tr.counts[cVerifies].Load())
	c["walk.row_calls"] = float64(tr.counts[cRowCalls].Load())
	c["tcp.opens"] = tcpActiveOpens()
	c["tcp.lo_bytes"] = loopbackBytes()
	return c
}

// attribution is the traced phase cut up by layer.
type attribution struct {
	opNS   int64            // Σ op span durations
	selfNS map[string]int64 // per layer, summing to opNS
	// spanSelf is each span's duration minus the part of it its children
	// cover, indexed like the spans slice (ops only).
	spanSelf []int64
}

// attribute splits every op's interval among layers. At each instant the
// innermost active spans (highest level) own the time, shared equally
// when several run at once; instants covered by the op span alone are
// the driver's residual.
func attribute(spans []span) attribution {
	a := attribution{selfNS: make(map[string]int64), spanSelf: make([]int64, len(spans))}
	byOp := make(map[int32][]int)
	for i, s := range spans {
		if s.op >= 0 {
			byOp[s.op] = append(byOp[s.op], i)
		}
	}
	for _, idx := range byOp {
		var op *span
		for _, i := range idx {
			if spans[i].kind == kOp {
				op = &spans[i]
			}
		}
		if op == nil {
			continue
		}
		a.opNS += op.end - op.start
		points := make([]int64, 0, 2*len(idx))
		for _, i := range idx {
			points = append(points, clamp(spans[i].start, op), clamp(spans[i].end, op))
		}
		sort.Slice(points, func(x, y int) bool { return points[x] < points[y] })
		share := make(map[string]float64)
		for k := 0; k+1 < len(points); k++ {
			lo, hi := points[k], points[k+1]
			if hi == lo {
				continue
			}
			top, owners := -1, []string(nil)
			for _, i := range idx {
				s := spans[i]
				if s.start > lo || s.end < hi {
					continue
				}
				switch lvl := kinds[s.kind].level; {
				case lvl > top:
					top, owners = lvl, append(owners[:0], kinds[s.kind].layer)
				case lvl == top:
					owners = append(owners, kinds[s.kind].layer)
				}
			}
			for _, l := range owners {
				share[l] += float64(hi-lo) / float64(len(owners))
			}
		}
		for l, ns := range share {
			a.selfNS[l] += int64(ns)
		}
		for _, i := range idx {
			a.spanSelf[i] = selfTime(spans, idx, i)
		}
	}
	return a
}

func clamp(t int64, op *span) int64 {
	return min(max(t, op.start), op.end)
}

// selfTime is span i's duration minus the union of its children's
// intervals (higher-level spans of the same op inside it).
func selfTime(spans []span, idx []int, i int) int64 {
	s := spans[i]
	var kids [][2]int64
	for _, j := range idx {
		c := spans[j]
		if j == i || kinds[c.kind].level <= kinds[s.kind].level || c.start < s.start || c.end > s.end {
			continue
		}
		kids = append(kids, [2]int64{c.start, c.end})
	}
	sort.Slice(kids, func(x, y int) bool { return kids[x][0] < kids[y][0] })
	covered, curLo, curHi := int64(0), int64(-1), int64(-1)
	for _, k := range kids {
		if k[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = k[0], k[1]
			continue
		}
		curHi = max(curHi, k[1])
	}
	covered += curHi - curLo
	return (s.end - s.start) - covered
}

// layerMetrics derives the per-layer metrics from the traced phase.
func layerMetrics(a attribution, spans []span, before, after map[string]float64, ops int) map[string]metric {
	type agg struct {
		n       int
		ns, sel int64
	}
	var inOps, inSetup [numKinds]agg
	for i, s := range spans {
		g := &inOps[s.kind]
		if s.op < 0 {
			g = &inSetup[s.kind]
		}
		g.n++
		g.ns += s.end - s.start
		if s.op >= 0 {
			g.sel += a.spanSelf[i]
		}
	}
	n := float64(ops)
	delta := func(key string) float64 { return after[key] - before[key] }
	perOp := func(v float64) float64 { return v / n }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	meanMS := func(g agg) float64 { return ratio(float64(g.ns)/1e6, float64(g.n)) }
	selfMS := func(g agg) float64 { return ratio(float64(g.sel)/1e6, float64(g.n)) }
	joinAgg := func(x, y agg) agg { return agg{x.n + y.n, x.ns + y.ns, x.sel + y.sel} }

	rpcs := joinAgg(inOps[kDHTRPC], inOps[kDHTStoreRPC])
	retrieves := joinAgg(inOps[kDHTRetrieve], inOps[kWalkFetch])
	rowCalls := delta("walk.row_calls")
	fetches := float64(inOps[kWalkFetch].n)
	hitRatio := 0.0
	if rowCalls > 0 {
		hitRatio = 1 - fetches/rowCalls
	}
	m := map[string]metric{
		"dht.rpcs_per_op":             {perOp(float64(rpcs.n)), "count"},
		"dht.rpc_ms":                  {meanMS(rpcs), "ms"},
		"dht.lookup_hops":             {ratio(delta(ctrLookupHops), float64(retrieves.n)), "count"},
		"dht.retrieve_ms":             {meanMS(retrieves), "ms"},
		"dht.publish_ms":              {meanMS(inSetup[kDHTPublish]), "ms"},
		"dht.store_rpcs_per_publish":  {ratio(float64(inSetup[kDHTStoreRPC].n), float64(inSetup[kDHTPublish].n)), "count"},
		"tcp.opens_per_op":            {perOp(delta("tcp.opens")), "count"},
		"tcp.lo_bytes_per_op":         {perOp(delta("tcp.lo_bytes")), "B"},
		"walk.row_calls_per_op":       {perOp(rowCalls), "count"},
		"walk.fetches_per_op":         {perOp(fetches), "count"},
		"walk.cache_hit_ratio":        {hitRatio, "ratio"},
		"walk.fetch_ms":               {meanMS(inOps[kWalkFetch]), "ms"},
		"walk.estimate_self_ms":       {selfMS(inOps[kWalkEstimate]), "ms"},
		"peer.fetches_per_op":         {perOp(float64(inOps[kPeerFetch].n)), "count"},
		"peer.fetch_ms":               {meanMS(inOps[kPeerFetch]), "ms"},
		"peer.serve_sign_ms":          {meanMS(inOps[kPeerServe]), "ms"},
		"peer.sync_self_ms":           {selfMS(inOps[kPeerSync]), "ms"},
		"peer.judge_ms":               {meanMS(inOps[kPeerJudge]), "ms"},
		"peer.frame_bytes_per_fetch":  {ratio(delta(ctrFrameBytes), float64(inOps[kPeerFetch].n)), "B"},
		"identity.signs_per_op":       {perOp(delta("identity.signs")), "count"},
		"identity.verifies_per_op":    {perOp(delta("identity.verifies")), "count"},
		"journal.apply_batch_ms":      {meanMS(inOps[kJournalApply]), "ms"},
		"journal.fsyncs_per_op":       {perOp(delta(ctrFsyncs)), "count"},
		"journal.snapshots_per_op":    {perOp(delta(ctrSnapshots)), "count"},
		"journal.wal_bytes_per_event": {ratio(delta(ctrWALBytes), delta(ctrWALEvents)), "B"},
		"journal.recovery_s":          {float64(inSetup[kJournalOpen].ns) / 1e9, "s"},
		"core.rebuild_ms":             {meanMS(inOps[kCoreTM]), "ms"},
		"core.dirty_rows_per_op":      {perOp(delta(ctrDirtyRows)), "count"},
		"core.rm_row_ms":              {meanMS(inOps[kCoreRMRow]), "ms"},
		"driver.residual_ms_per_op":   {perOp(float64(a.selfNS["driver"]) / 1e6), "ms"},
		"driver.traced_op_ms":         {perOp(float64(a.opNS) / 1e6), "ms"},
		"dht.self_ms_per_op":          {perOp(float64(a.selfNS["dht"]) / 1e6), "ms"},
		"peer.self_ms_per_op":         {perOp(float64(a.selfNS["peer"]) / 1e6), "ms"},
		"walk.self_ms_per_op":         {perOp(float64(a.selfNS["walk"]) / 1e6), "ms"},
		"journal.self_ms_per_op":      {perOp(float64(a.selfNS["journal"]) / 1e6), "ms"},
		"core.self_ms_per_op":         {perOp(float64(a.selfNS["core"]) / 1e6), "ms"},
	}
	return m
}

// layerTable renders the per-layer self-time table of a traced run.
func layerTable(name string, seed uint64, a attribution, ops int, tracedTput, plainTput float64, cond conditions) string {
	var b strings.Builder
	opMS := float64(a.opNS) / 1e6 / float64(ops)
	fmt.Fprintf(&b, "%s seed=%d traced ops=%d, %.3f ms/op traced; throughput %.2f/s traced vs %.2f/s untraced (overhead %.1f%%)\n",
		name, seed, ops, opMS, tracedTput, plainTput, 100*(plainTput-tracedTput)/plainTput)
	fmt.Fprintf(&b, "conditions: %s\n", cond)
	fmt.Fprintf(&b, "%-8s %12s %8s\n", "layer", "self ms/op", "share")
	for _, l := range layers {
		ms := float64(a.selfNS[l]) / 1e6 / float64(ops)
		label := l
		if l == "driver" {
			label = "driver (residual)"
		}
		fmt.Fprintf(&b, "%-8s %12.3f %7.1f%%\n", label, ms, 100*ms/opMS)
	}
	return b.String()
}

// writeTrace writes the span file (one CSV row per span) and the layer
// table under outDir/traces.
func writeTrace(outDir, name string, seed uint64, spans []span, table string) error {
	dir := filepath.Join(outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	f, err := os.Create(stem + ".spans.csv")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,span,layer,level,start_ns,end_ns")
	for _, s := range spans {
		k := kinds[s.kind]
		fmt.Fprintf(w, "%d,%s,%s,%d,%d,%d\n", s.op, k.name, k.layer, k.level, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(stem+".layers.txt", []byte(table), 0o644)
}
