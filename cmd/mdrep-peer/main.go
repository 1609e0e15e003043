// Command mdrep-peer runs the decentralised protocol (§4.1 steps 4–6)
// over real TCP: it serves this participant's signed evaluation list,
// syncs other participants' lists, and prints the resulting trust row.
//
// Identities are deterministic from -seed so two invocations can refer to
// each other; a real deployment would persist keys and resolve addresses
// through the DHT.
//
// With -data-dir the participant's own evidence — votes, retention
// signals, downloads, ratings, blacklist — is made durable through a
// write-ahead log plus snapshots (internal/journal): a peer killed and
// restarted from the same data dir resumes with its trust history intact
// instead of whitewashing itself.
//
// Usage:
//
//	mdrep-peer id    -seed 1
//	mdrep-peer serve -seed 1 -listen 127.0.0.1:9100 \
//	                 [-vote FILE=0.9,OTHER=0.1] [-data-dir DIR] \
//	                 [-metrics-addr HOST:PORT]
//	mdrep-peer trust -seed 2 -vote FILE=0.9 \
//	                 -sync SEED@HOST:PORT[,SEED@HOST:PORT…] [-data-dir DIR]
//	mdrep-peer engine -data-dir DIR [-n 64] [-shards 4] [-events 256]
//	                 [-batch 64] [-seed 1] [-crash] [-metrics-addr HOST:PORT]
//
// The engine subcommand hosts the sharded trust engine over a durable
// per-shard journal: each run recovers all shards in parallel, ingests a
// deterministic workload through the group-commit batch path (one fsync
// per shard per batch) and reports peer 0's reputation view. -crash
// exits without a clean close to demonstrate that group-committed
// batches survive and replay on the next run.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"mdrep/internal/eval"
	"mdrep/internal/flight"
	"mdrep/internal/identity"
	"mdrep/internal/journal"
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
	"mdrep/internal/peer"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mdrep-peer:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: mdrep-peer id|serve|trust [flags]")
	}
	switch args[0] {
	case "id":
		return printID(args[1:])
	case "serve":
		return serve(args[1:])
	case "trust":
		return trust(args[1:])
	case "engine":
		return engineCmd(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// makeIdentity derives the deterministic identity for a seed and registers
// it in dir.
func makeIdentity(seed uint64, dir *identity.Directory) (*identity.Identity, error) {
	id, err := identity.Generate(identity.NewDeterministicReader(seed))
	if err != nil {
		return nil, err
	}
	if _, err := dir.Register(id.PublicKey()); err != nil {
		return nil, err
	}
	return id, nil
}

// startMetrics starts the opt-in HTTP introspection endpoint: Prometheus
// text on /metrics, expvar on /debug/vars, pprof under /debug/pprof/. An
// empty addr disables it and returns a nil registry.
func startMetrics(addr string) (*metrics.Registry, *obs.Server, error) {
	if addr == "" {
		return nil, nil, nil
	}
	reg := metrics.NewRegistry()
	srv, err := obs.Serve(addr, reg)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("metrics on http://%s/metrics\n", srv.Addr())
	return reg, srv, nil
}

// startFlight installs the always-on flight recorder and enables causal
// tracing when on; the recorder is visible at /debug/flight when the
// introspection endpoint runs, and dumpFlight prints it at shutdown.
func startFlight(on bool, seed uint64) *flight.Recorder {
	if !on {
		return nil
	}
	rec := flight.NewRecorder(flight.DefaultRingSize, flight.DefaultMaxDumps)
	flight.Install(rec)
	obs.EnableTracing(seed, obs.WallClock, 1)
	return rec
}

// dumpFlight prints the recorder's stitched trace trees plus any
// black-box dumps to stderr, then uninstalls tracing.
func dumpFlight(rec *flight.Recorder) {
	if rec == nil {
		return
	}
	obs.DisableTracing()
	flight.Install(nil)
	fmt.Fprintln(os.Stderr, "=== flight recorder ===")
	fmt.Fprint(os.Stderr, flight.RenderTraces(rec.Snapshot()))
	for _, d := range rec.Dumps() {
		fmt.Fprint(os.Stderr, flight.RenderDump(d))
	}
}

// openJournal recovers the peer's durable state from dataDir; an empty
// dataDir disables persistence and returns a nil journal. With a non-nil
// registry the journal exports append/fsync/snapshot/recovery metrics.
func openJournal(dataDir string, p *peer.Peer, reg *metrics.Registry) (*journal.Peer, error) {
	if dataDir == "" {
		return nil, nil
	}
	cfg := journal.DefaultConfig()
	if reg != nil {
		cfg.Obs = journal.NewLogObs(reg, obs.WallClock)
	}
	jp, info, err := journal.OpenPeer(dataDir, p, cfg)
	if err != nil {
		return nil, err
	}
	if info.TruncatedTail {
		fmt.Println("journal: dropped a torn trailing record (crash mid-write)")
	}
	if info.SnapshotFallback {
		fmt.Println("journal: newest snapshot unreadable, recovered from an older generation")
	}
	if total := info.SnapshotSeq + info.Replayed; total > 0 {
		fmt.Printf("journal: recovered %d events (%d from snapshot, %d replayed) from %s\n",
			total, info.SnapshotSeq, info.Replayed, dataDir)
	}
	return jp, nil
}

// applyVotes records votes through the journal when persistence is on,
// directly otherwise.
func applyVotes(p *peer.Peer, jp *journal.Peer, votes map[eval.FileID]float64) error {
	for f, v := range votes {
		if jp == nil {
			p.Vote(f, v)
			continue
		}
		if err := jp.Vote(f, v); err != nil {
			return err
		}
	}
	return nil
}

// parseVotes parses "file=0.9,other=0.1". A value that is not a number
// is refused; one outside [0,1] is clamped when the vote is recorded.
func parseVotes(spec string) (map[eval.FileID]float64, error) {
	out := make(map[eval.FileID]float64)
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("malformed vote %q (want FILE=VALUE)", part)
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return nil, fmt.Errorf("vote %q: %w", part, err)
		}
		if math.IsNaN(v) {
			return nil, fmt.Errorf("vote %q: not a number", part)
		}
		out[eval.FileID(kv[0])] = v
	}
	return out, nil
}

func printID(args []string) error {
	fs := flag.NewFlagSet("id", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "identity seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir := identity.NewDirectory()
	id, err := makeIdentity(*seed, dir)
	if err != nil {
		return err
	}
	fmt.Printf("seed %d → peer ID %s\n", *seed, id.ID())
	return nil
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "identity seed")
	listen := fs.String("listen", "127.0.0.1:9100", "address to serve the evaluation list on")
	votes := fs.String("vote", "", "comma-separated FILE=VALUE evaluations to publish")
	dataDir := fs.String("data-dir", "", "directory for the durable journal (empty = in-memory only)")
	metricsAddr := fs.String("metrics-addr", "", "optional introspection address (\":0\" = ephemeral): Prometheus /metrics, expvar, pprof")
	withFlight := fs.Bool("flight", false, "enable causal tracing with the flight recorder (served at /debug/flight, dumped at shutdown)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	defer dumpFlight(startFlight(*withFlight, *seed))
	reg, msrv, err := startMetrics(*metricsAddr)
	if err != nil {
		return err
	}
	if msrv != nil {
		defer func() { _ = msrv.Close() }()
	}
	dir := identity.NewDirectory()
	id, err := makeIdentity(*seed, dir)
	if err != nil {
		return err
	}
	resolver := peer.NewStaticResolver()
	network := peer.NewTCPExchange(resolver)
	defer func() { _ = network.Close() }()
	xobs := peer.NewExchangeObs(reg)
	network.Instrument(xobs)
	p, err := peer.New(id, dir, network, peer.DefaultConfig())
	if err != nil {
		return err
	}
	jp, err := openJournal(*dataDir, p, reg)
	if err != nil {
		return err
	}
	parsed, err := parseVotes(*votes)
	if err != nil {
		return err
	}
	if err := applyVotes(p, jp, parsed); err != nil {
		return err
	}
	if jp != nil {
		// The startup votes are a one-shot batch that would otherwise sit
		// below the fsync threshold until shutdown; a hard kill must not
		// lose them.
		if err := jp.Sync(); err != nil {
			return err
		}
	}
	srv, err := peer.ServeExchange(*listen, p.SignedEvaluations)
	if err != nil {
		return err
	}
	srv.Instrument(xobs)
	serving, err := p.SignedEvaluations()
	if err != nil {
		return err
	}
	fmt.Printf("peer %s serving %d evaluations on %s\n", p.ID(), len(serving), srv.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop

	// Graceful shutdown: stop accepting exchange requests first so no new
	// evidence arrives, then flush the journal and take a final snapshot so
	// the next start recovers instantly.
	fmt.Println("shutting down: closing exchange listener")
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mdrep-peer: exchange close:", err)
	}
	if jp != nil {
		fmt.Println("shutting down: flushing journal and taking final snapshot")
		if err := jp.Close(); err != nil {
			return fmt.Errorf("journal close: %w", err)
		}
	}
	fmt.Println("shutdown complete")
	return nil
}

func trust(args []string) error {
	fs := flag.NewFlagSet("trust", flag.ContinueOnError)
	seed := fs.Uint64("seed", 2, "identity seed")
	votes := fs.String("vote", "", "comma-separated FILE=VALUE evaluations of our own")
	syncSpec := fs.String("sync", "", "comma-separated SEED@HOST:PORT peers to sync with")
	dataDir := fs.String("data-dir", "", "directory for the durable journal (empty = in-memory only)")
	withFlight := fs.Bool("flight", false, "enable causal tracing with the flight recorder, dumped at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	defer dumpFlight(startFlight(*withFlight, *seed))
	if *syncSpec == "" {
		return fmt.Errorf("trust: -sync is required")
	}
	dir := identity.NewDirectory()
	id, err := makeIdentity(*seed, dir)
	if err != nil {
		return err
	}
	resolver := peer.NewStaticResolver()
	network := peer.NewTCPExchange(resolver)
	defer func() { _ = network.Close() }()
	p, err := peer.New(id, dir, network, peer.DefaultConfig())
	if err != nil {
		return err
	}
	jp, err := openJournal(*dataDir, p, nil)
	if err != nil {
		return err
	}
	parsed, err := parseVotes(*votes)
	if err != nil {
		return err
	}
	if err := applyVotes(p, jp, parsed); err != nil {
		return err
	}

	names := make(map[identity.PeerID]string)
	for _, part := range strings.Split(*syncSpec, ",") {
		kv := strings.SplitN(part, "@", 2)
		if len(kv) != 2 {
			return fmt.Errorf("malformed sync target %q (want SEED@HOST:PORT)", part)
		}
		peerSeed, err := strconv.ParseUint(kv[0], 10, 64)
		if err != nil {
			return fmt.Errorf("sync target %q: %w", part, err)
		}
		otherID, err := makeIdentity(peerSeed, dir)
		if err != nil {
			return err
		}
		resolver.Set(otherID.ID(), kv[1])
		names[otherID.ID()] = part
		n, err := p.SyncPeer(otherID.ID())
		if err != nil {
			fmt.Printf("sync %s: %v\n", part, err)
			continue
		}
		fmt.Printf("synced %d evaluations from %s\n", n, part)
	}
	row := p.TrustRow()
	type entry struct {
		name  string
		trust float64
	}
	entries := make([]entry, 0, len(row))
	for pid, v := range row {
		entries = append(entries, entry{name: names[pid], trust: v})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].trust > entries[j].trust })
	fmt.Println("\ntrust row:")
	for _, e := range entries {
		fmt.Printf("  %-24s %.3f\n", e.name, e.trust)
	}
	if jp != nil {
		if err := jp.Close(); err != nil {
			return fmt.Errorf("journal close: %w", err)
		}
	}
	return nil
}
