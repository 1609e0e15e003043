package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/dht"
	"mdrep/internal/identity"
	"mdrep/internal/journal"
	"mdrep/internal/obs"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// sampleValue extracts one series' value from a Prometheus exposition.
func sampleValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, series+" ") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, series+" "), "%g", &v); err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s missing from exposition:\n%s", series, exposition)
	return 0
}

// TestMetricsEndpointServesWorkloadSeries is the PR's acceptance test:
// the -metrics-addr endpoint (startMetrics, exactly what `serve` wires
// up) must expose Prometheus text, expvar and pprof, and after a
// workload the engine build-time, journal append, and DHT RPC-latency
// series must all have nonzero samples.
func TestMetricsEndpointServesWorkloadSeries(t *testing.T) {
	reg, msrv, err := startMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = msrv.Close() }()
	base := "http://" + msrv.Addr()

	// Engine + journal workload: a journal-backed reputation engine with
	// both observers attached, driven through a few events and a TM build.
	jcfg := journal.DefaultConfig()
	jcfg.Obs = journal.NewLogObs(reg, obs.WallClock)
	je, _, err := journal.OpenSharded(t.TempDir(), 4, 1, core.DefaultConfig(), jcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	je.Core().SetObserver(core.NewEngineObs(reg, obs.WallClock))
	if err := je.Vote(0, "f", 0.8, 0); err != nil {
		t.Fatal(err)
	}
	if err := je.RecordDownload(1, 0, "f", 1024, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := je.Core().Reputations(0, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := je.Close(); err != nil {
		t.Fatal(err)
	}

	// DHT workload: a single-node ring over real TCP, driven through an
	// instrumented retry client.
	client := dht.NewRetryClient(dht.NewTCPClient(), dht.DefaultRetryPolicy(), 1)
	client.Instrument(reg, obs.WallClock)
	ncfg := dht.DefaultNodeConfig()
	ncfg.Storage = dht.NewStorage(0, nil)
	dsrv, err := dht.ServeTCPNode("127.0.0.1:0", client, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dsrv.Close() }()
	owner, err := identity.Generate(identity.NewDeterministicReader(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := dht.StoredRecord{Key: dht.HashKey("scraped-file")}
	rec.Info.FileID = "scraped-file"
	rec.Info.OwnerID = owner.ID()
	rec.Info.Evaluation = 0.9
	if err := rec.Info.Sign(owner); err != nil {
		t.Fatal(err)
	}
	if err := client.Store(obs.SpanContext{}, dsrv.Addr(), []dht.StoredRecord{rec}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Retrieve(obs.SpanContext{}, dsrv.Addr(), rec.Key); err != nil {
		t.Fatal(err)
	}

	// Prometheus exposition: all three families must have nonzero counts.
	code, exposition := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, series := range []string{
		`engine_build_seconds_count{dim="fm"}`,
		`engine_build_seconds_count{dim="dm"}`,
		`engine_build_seconds_count{dim="um"}`,
		`journal_append_seconds_count`,
		`dht_rpc_seconds_count{op="store"}`,
		`dht_rpc_seconds_count{op="retrieve"}`,
	} {
		if v := sampleValue(t, exposition, series); v == 0 {
			t.Errorf("%s = 0 after workload", series)
		}
	}
	if v := sampleValue(t, exposition, "journal_append_total"); v == 0 {
		t.Error("journal_append_total = 0 after journaled events")
	}

	// expvar: the registry snapshot is published as mdrep_metrics.
	code, vars := httpGet(t, base+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	if !strings.Contains(vars, "mdrep_metrics") || !strings.Contains(vars, "journal_append_total") {
		t.Error("/debug/vars missing the registry export")
	}

	// pprof: the index and a cheap profile endpoint must answer.
	if code, _ := httpGet(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, _ := httpGet(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
}

// TestHealthzAndFlightEndpoints is the readiness + black-box acceptance
// test: /healthz answers 200 once startMetrics has bound a registry, and
// /debug/flight serves the recorder installed by startFlight — the ring
// view while healthy, rendered dumps once a fault triggers one.
func TestHealthzAndFlightEndpoints(t *testing.T) {
	rec := startFlight(true, 7)
	defer dumpFlight(rec)
	_, msrv, err := startMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = msrv.Close() }()
	base := "http://" + msrv.Addr()

	code, body := httpGet(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}

	// No dumps yet: the endpoint must say so rather than 404.
	code, body = httpGet(t, base+"/debug/flight")
	if code != http.StatusOK || !strings.Contains(body, "no flight dumps recorded") {
		t.Fatalf("/debug/flight (no dumps) = %d %q", code, body)
	}

	// A traced span pair shows up in the live ring view.
	root := obs.StartRoot("peer.sync")
	child := obs.StartChild(root.Context(), "peer.fetch_evaluations")
	child.End()
	root.End()
	code, body = httpGet(t, base+"/debug/flight?ring=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/flight?ring= status %d", code)
	}
	if !strings.Contains(body, "peer.sync") || !strings.Contains(body, "  peer.fetch_evaluations") {
		t.Errorf("ring view missing the stitched spans:\n%s", body)
	}

	// A triggered dump replaces the placeholder with a rendered black box.
	rec.Trigger("test: simulated fault")
	code, body = httpGet(t, base+"/debug/flight")
	if code != http.StatusOK || !strings.Contains(body, "flight dump #1: test: simulated fault") {
		t.Fatalf("/debug/flight (dumped) = %d %q", code, body)
	}
	if !strings.Contains(body, "peer.sync") {
		t.Errorf("dump body missing recorded spans:\n%s", body)
	}
}
