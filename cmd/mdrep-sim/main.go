// Command mdrep-sim runs the extension experiments E1–E6 (see DESIGN.md):
//
//	E1  fake-file suppression by judgement scheme
//	E2  service differentiation of free-riders vs sharers
//	E3  collusion: clique trust capture by mechanism
//	E4  request-coverage ablation per trust dimension
//	E5  multi-trust depth sweep in the sparse-vote regime
//	E6  DHT lookup/publication overhead and churn resilience
//	e1sweep  E1 across polluter fractions 10–40%
//	E7  dimension-weight (α/β/γ) ablation
//	massim   million-peer adversarial scenarios (E9)
//	walk     Monte-Carlo random-walk RM estimation vs exact kernel (E11)
//
// Usage:
//
//	mdrep-sim [-exp e1|e1sweep|e2|e3|e4|e5|e6|e7|all] [-scale small|full]
//	          [-metrics]
//	mdrep-sim -exp massim [-scenario name|all] [-n peers] [-seed s]
//	          [-epochs e] [-baselines] [-shards k] [-metrics]
//	mdrep-sim -exp walk [-n users] [-seed s] [-walks w] [-depth d]
//	          [-dht [-dht-nodes k]] [-flight] [-metrics]
//
// The massim experiment runs the adversarial scenario library of
// internal/massim (collusion-front, whitewash, camouflage, strategic)
// at any population size from thousands to a million peers; -baselines
// adds the EigenTrust / BLUE / mirrored-engine comparison estimators at
// small n. Output is byte-identical for a fixed (scenario, n, seed).
//
// The walk experiment (E11) builds a seeded random trust matrix of -n
// users, runs walk ensembles of -depth steps sweeping walk counts up to
// -walks, and reports max/mean absolute error and top-10 agreement
// against the exact sparse.RowVecPow answer. Output is byte-identical
// for a fixed (n, seed, walks, depth).
//
// With -dht the walk experiment fetches TM rows through an in-memory
// DHT ring (retry layer included) instead of reading the matrix
// locally; the estimate must match the local twin byte for byte. With
// -flight the run enables causal tracing with the always-on flight
// recorder and prints the stitched trace trees at exit — for a
// DHT-sourced walk that is one tree per estimate: walk.estimate >
// walk.row_fetch > dht.retrieve > dht.op > dht.attempt > dht.rpc hops.
//
// With -metrics the run instruments the sparse kernels and prints a
// one-shot metrics report at exit; the per-step RM walk timings there
// (sparse_rowvecpow_step_seconds) are how to read the cost of the
// multi-trust depth n (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"mdrep/internal/chaos"
	"mdrep/internal/dht"
	"mdrep/internal/experiments"
	"mdrep/internal/flight"
	"mdrep/internal/massim"
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
	"mdrep/internal/sparse"
	"mdrep/internal/walk"
	"mdrep/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mdrep-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mdrep-sim", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id: e1..e7, massim, walk, or all")
	scale := fs.String("scale", "small", "experiment scale: small or full")
	withMetrics := fs.Bool("metrics", false, "instrument the kernels and print a metrics report at exit")
	scenario := fs.String("scenario", "all", "massim scenario name or all")
	n := fs.Int("n", 10000, "massim population size / walk user count")
	seed := fs.Uint64("seed", 1, "massim/walk experiment seed")
	epochs := fs.Int("epochs", 0, "massim epoch count (0 = scenario default)")
	baselines := fs.Bool("baselines", false, "massim: run eigentrust/BLUE/engine comparison baselines")
	shards := fs.Int("shards", 0, "massim: back the mirrored engine with this many shards (0/1 = one shard)")
	walks := fs.Int("walks", 16000, "walk: largest walk count of the sweep")
	depth := fs.Int("depth", 3, "walk: multi-trust depth n of each walk")
	dhtMode := fs.Bool("dht", false, "walk: fetch TM rows through an in-memory DHT ring instead of the local matrix")
	dhtNodes := fs.Int("dht-nodes", 8, "walk: ring size for -dht")
	withFlight := fs.Bool("flight", false, "enable causal tracing and print the flight recorder's stitched trace trees at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *withFlight {
		rec := flight.NewRecorder(flight.DefaultRingSize, flight.DefaultMaxDumps)
		flight.Install(rec)
		obs.EnableTracing(*seed, obs.WallClock, 1)
		defer func() {
			obs.DisableTracing()
			flight.Install(nil)
			fmt.Fprintln(os.Stderr, "=== flight recorder ===")
			fmt.Fprint(os.Stderr, flight.RenderTraces(rec.Snapshot()))
			for _, d := range rec.Dumps() {
				fmt.Fprint(os.Stderr, flight.RenderDump(d))
			}
		}()
	}
	if *withMetrics {
		reg := metrics.NewRegistry()
		sparse.Instrument(reg, obs.WallClock)
		massim.Instrument(reg, obs.WallClock)
		walk.Instrument(reg, obs.WallClock)
		defer func() {
			sparse.Uninstrument()
			massim.Uninstrument()
			walk.Uninstrument()
			_ = reg.Dump(os.Stderr)
		}()
	}
	if strings.EqualFold(*exp, "massim") {
		return runMassim(*scenario, *n, *seed, *epochs, *baselines, *shards)
	}
	if strings.EqualFold(*exp, "walk") {
		wn, nSet := *n, false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "n" {
				nSet = true
			}
		})
		if !nSet {
			wn = 2000 // the E11 default: cross-validation scale, not massim scale
		}
		if *dhtMode {
			return runWalkDHT(wn, *seed, *walks, *depth, *dhtNodes)
		}
		return runWalk(wn, *seed, *walks, *depth)
	}
	sc := experiments.ScaleSmall
	switch *scale {
	case "small":
	case "full":
		sc = experiments.ScaleFull
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}

	type renderer interface{ Render() string }
	runners := map[string]func() (renderer, error){
		"e1":      func() (renderer, error) { return experiments.E1FakeFiles(sc) },
		"e2":      func() (renderer, error) { return experiments.E2Incentive(sc) },
		"e3":      func() (renderer, error) { return experiments.E3Collusion(experiments.DefaultE3Config(sc)) },
		"e4":      func() (renderer, error) { return experiments.E4Ablation(sc) },
		"e5":      func() (renderer, error) { return experiments.E5Steps(experiments.DefaultE5Config(sc)) },
		"e6":      func() (renderer, error) { return experiments.E6DHT(experiments.DefaultE6Config(sc)) },
		"e1sweep": func() (renderer, error) { return experiments.E1PolluterSweep(sc) },
		"e7":      func() (renderer, error) { return experiments.E7Weights(sc) },
	}
	order := []string{"e1", "e1sweep", "e2", "e3", "e4", "e5", "e6", "e7"}

	var selected []string
	switch strings.ToLower(*exp) {
	case "all":
		selected = order
	default:
		if _, ok := runners[strings.ToLower(*exp)]; !ok {
			return fmt.Errorf("unknown experiment %q (want e1..e7, e1sweep, or all)", *exp)
		}
		selected = []string{strings.ToLower(*exp)}
	}
	for _, id := range selected {
		fmt.Printf("=== %s ===\n", strings.ToUpper(id))
		res, err := runners[id]()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(res.Render())
	}
	return nil
}

// runWalk runs E11: one seeded random graph, walk counts swept in
// octaves up to maxWalks, each estimate scored against the exact
// RowVecPow answer.
func runWalk(n int, seed uint64, maxWalks, depth int) error {
	if maxWalks < 1 {
		return fmt.Errorf("walk: -walks must be >= 1, got %d", maxWalks)
	}
	tm, err := walk.RandomTM(n, seed)
	if err != nil {
		return err
	}
	counts := []int{maxWalks}
	for w := maxWalks / 4; w >= 250 && len(counts) < 4; w /= 4 {
		counts = append([]int{w}, counts...)
	}
	points, err := walk.RunSweep(tm, walk.SweepConfig{
		Source:     0,
		Depth:      depth,
		Seed:       seed,
		WalkCounts: counts,
	})
	if err != nil {
		return err
	}
	fmt.Printf("=== walk (E11) n=%d depth=%d seed=%d ===\n", n, depth, seed)
	fmt.Print(walk.RenderSweep(points))
	return nil
}

// walkDHTEpoch pins every published row and the source to one snapshot
// generation; the single-shot experiment never rotates epochs.
const walkDHTEpoch = 1

// runWalkDHT runs the decentralized variant of E11: the same seeded
// graph, but every row the walkers touch is fetched through a fault-free
// in-memory DHT ring behind the retry layer. The estimate must equal the
// LocalSource twin byte for byte — the decentralization property the
// chaos suite asserts under faults, checked here on the happy path.
func runWalkDHT(n int, seed uint64, walks, depth, nodes int) error {
	if nodes < 2 {
		return fmt.Errorf("walk: -dht-nodes must be >= 2, got %d", nodes)
	}
	tm, err := walk.RandomTM(n, seed)
	if err != nil {
		return err
	}
	exact, err := tm.RowVecPow(0, depth)
	if err != nil {
		return err
	}
	rp := dht.DefaultRetryPolicy()
	nw, err := chaos.NewNetwork(chaos.NetworkConfig{
		Nodes:            nodes,
		SuccessorListLen: 3,
		Chaos:            chaos.Config{Seed: seed},
		Retry:            &rp,
	})
	if err != nil {
		return err
	}
	recs := make([]dht.StoredRecord, 0, n)
	for u := 0; u < n; u++ {
		cols, vals := tm.Row(u)
		rec, err := walk.RowRecord(&wire.TMRow{
			User:  int32(u),
			N:     int32(n),
			Epoch: walkDHTEpoch,
			Cols:  cols,
			Vals:  vals,
		})
		if err != nil {
			return err
		}
		recs = append(recs, rec)
	}
	if err := nw.Publish(recs, time.Second); err != nil {
		return err
	}
	nw.Converge(2)

	cfg := walk.Config{Walks: walks, Depth: depth, Seed: seed}
	src, err := walk.NewDHTSource(nw.Nodes[0], n, 0, walkDHTEpoch)
	if err != nil {
		return err
	}
	est, err := walk.New(src, cfg)
	if err != nil {
		return err
	}
	got, err := est.Estimate(0)
	if err != nil {
		return err
	}

	local, err := walk.NewLocalSource(tm)
	if err != nil {
		return err
	}
	twinEst, err := walk.New(local, cfg)
	if err != nil {
		return err
	}
	twin, err := twinEst.Estimate(0)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, twin) {
		return fmt.Errorf("walk: DHT-sourced estimate diverged from the local twin")
	}

	fmt.Printf("=== walk (E11, DHT-sourced) n=%d depth=%d seed=%d nodes=%d walks=%d ===\n", n, depth, seed, nodes, walks)
	fmt.Printf("max_err=%.6f mean_err=%.6f top10=%d/10 local_twin_identical=true\n",
		walk.MaxAbsError(got, exact), walk.MeanAbsError(got, exact), walk.TopKOverlap(got, exact, 10))
	return nil
}

// runMassim executes one or all massim scenarios and fails if any
// scenario's pass bound is violated.
func runMassim(scenario string, n int, seed uint64, epochs int, baselines bool, shards int) error {
	names := []string{scenario}
	if strings.EqualFold(scenario, "all") {
		names = massim.Names()
	}
	failed := 0
	for _, name := range names {
		scn, err := massim.Lookup(name)
		if err != nil {
			return err
		}
		cfg := massim.DefaultConfig()
		cfg.N = n
		cfg.Seed = seed
		if epochs > 0 {
			cfg.Epochs = epochs
		}
		cfg.Baselines = baselines
		cfg.MirrorEngine = baselines
		cfg.MirrorShards = shards
		fmt.Printf("=== massim %s ===\n", name)
		res, err := massim.Run(cfg, scn)
		if err != nil {
			return fmt.Errorf("massim %s: %w", name, err)
		}
		fmt.Print(res.Render())
		if !res.Verdict.Pass {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("massim: %d scenario(s) failed their pass bound", failed)
	}
	return nil
}
