package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the tests hold the benchmark to.
type spec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// countMetrics are the per-layer metrics that are counts of program
// work: for one seed they must repeat exactly from run to run.
var countMetrics = []string{
	"dht.rpcs_per_op", "dht.lookup_hops", "dht.store_rpcs_per_publish",
	"walk.row_calls_per_op", "walk.fetches_per_op", "walk.cache_hit_ratio",
	"peer.fetches_per_op", "peer.frame_bytes_per_fetch",
	"identity.signs_per_op", "identity.verifies_per_op",
	"journal.fsyncs_per_op", "journal.snapshots_per_op", "journal.wal_bytes_per_event",
	"core.dirty_rows_per_op",
}

// ownCounts are, per workload, counts that must be non-zero: the work the
// workload exists to exercise.
var ownCounts = map[string][]string{
	"judge-tcp":      {"dht.rpcs_per_op", "dht.store_rpcs_per_publish", "peer.fetches_per_op", "peer.frame_bytes_per_fetch", "identity.signs_per_op", "identity.verifies_per_op"},
	"walk-dht":       {"dht.rpcs_per_op", "dht.lookup_hops", "dht.store_rpcs_per_publish", "walk.row_calls_per_op", "walk.fetches_per_op", "walk.cache_hit_ratio"},
	"ingest-durable": {"journal.fsyncs_per_op", "journal.wal_bytes_per_event", "core.dirty_rows_per_op"},
}

func runShort(t *testing.T, w workload, seed uint64, trace bool) *result {
	t.Helper()
	opt := options{seed: seed, seconds: 400 * time.Millisecond, trace: trace, outDir: t.TempDir()}
	res, err := execute(w, opt, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// TestCountsRepeat runs each workload's traced variant twice with one
// seed: every count metric must match exactly, and the metric names must
// be exactly BENCHMARK.json's per-layer list.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("starts TCP rings and an on-disk journal")
	}
	s := readSpec(t)
	var names []string
	for _, m := range s.PerLayer {
		names = append(names, m.Name)
	}
	slices.Sort(names)
	for _, w := range workloads {
		w.traceOps = w.traceOps / 6
		a := runShort(t, w, 7, true)
		b := runShort(t, w, 7, true)
		if got := metricNames(a); !slices.Equal(got, names) {
			t.Errorf("%s: traced metrics %v, BENCHMARK.json per_layer %v", w.name, got, names)
		}
		for _, k := range countMetrics {
			if a.Metrics[k].Value != b.Metrics[k].Value {
				t.Errorf("%s: %s = %v then %v with one seed", w.name, k, a.Metrics[k].Value, b.Metrics[k].Value)
			}
		}
		for _, k := range ownCounts[w.name] {
			if a.Metrics[k].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, k, a.Metrics[k].Value)
			}
		}
		// Both transports dial once per call, so the kernel must have seen
		// at least one connection per traced RPC and fetch.
		dialled := a.Metrics["dht.rpcs_per_op"].Value + a.Metrics["peer.fetches_per_op"].Value
		if opens := a.Metrics["tcp.opens_per_op"].Value; opens < dialled {
			t.Errorf("%s: tcp.opens_per_op = %v < %v calls per op", w.name, opens, dialled)
		}
		if share := a.Metrics["driver.residual_ms_per_op"].Value / a.Metrics["driver.traced_op_ms"].Value; share >= 0.1 {
			t.Errorf("%s: driver residual is %.1f%% of the traced op", w.name, 100*share)
		}
	}
}

// TestEndToEndNames checks an untraced run prints exactly BENCHMARK.json's
// end-to-end metrics with their units.
func TestEndToEndNames(t *testing.T) {
	if testing.Short() {
		t.Skip("writes an on-disk journal")
	}
	w, _ := lookupWorkload("ingest-durable")
	res := runShort(t, w, 3, false)
	s := readSpec(t)
	if len(res.Metrics) != len(s.EndToEnd) {
		t.Errorf("run prints %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(s.EndToEnd))
	}
	for _, m := range s.EndToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || got.Value == 0 {
			t.Errorf("%s: got %+v (present %v), want unit %s and a non-zero value", m.Name, got, ok, m.Unit)
		}
	}
}

// TestStationarity runs each workload for eight seconds: the last
// quarter's median op latency must stay within the latency bound of the
// first quarter's, so a run measures one steady state, not a drift.
func TestStationarity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for eight seconds")
	}
	bound := 0.0
	for _, m := range readSpec(t).EndToEnd {
		if m.Name == "latency_p50_ms" {
			bound = m.Bound
		}
	}
	for _, w := range workloads {
		inst, err := w.setup(&env{seed: 11, dir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		ph := measure(inst, 0, func(_ int, elapsed time.Duration) bool { return elapsed >= 8*time.Second }, nil)
		if err := inst.close(); err != nil {
			t.Fatal(err)
		}
		if ph.failed > 0 {
			t.Fatalf("%s: %d ops failed, first: %v", w.name, ph.failed, ph.firstErr)
		}
		if d := summarize(ph.lat).drift; math.Abs(d) > bound {
			t.Errorf("%s: op latency moved %+.1f%% from the first quarter to the last (bound %.0f%%)", w.name, 100*d, 100*bound)
		}
	}
}

func metricNames(r *result) []string {
	var out []string
	for k := range r.Metrics {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
