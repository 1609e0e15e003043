// Command mdrep-dht runs a DHT node over real TCP, or drives one from the
// command line. It demonstrates §4.1: a file's signed evaluation is
// published with its index entry, republished, and retrieved by any node.
//
// Usage:
//
//	mdrep-dht serve -listen 127.0.0.1:9000 [-join HOST:PORT] [-ttl DUR]
//	                [-metrics-addr HOST:PORT]
//	mdrep-dht put   -node HOST:PORT -file HASH -value 0.9 [-keyseed N]
//	mdrep-dht get   -node HOST:PORT -file HASH
//	mdrep-dht demo  [-nodes N]
//
// serve blocks until interrupted; put/get talk to a running node; demo
// spins an in-process TCP ring, publishes a signed evaluation, retrieves
// it from another node, and exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mdrep/internal/dht"
	"mdrep/internal/eval"
	"mdrep/internal/identity"
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mdrep-dht:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: mdrep-dht serve|put|get|demo [flags]")
	}
	switch args[0] {
	case "serve":
		return serve(args[1:])
	case "put":
		return put(args[1:])
	case "get":
		return get(args[1:])
	case "demo":
		return demo(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:9000", "address to listen on")
	join := fs.String("join", "", "address of an existing ring member")
	ttl := fs.Duration("ttl", time.Hour, "stored record TTL")
	stabilize := fs.Duration("stabilize", 500*time.Millisecond, "stabilisation interval")
	metricsAddr := fs.String("metrics-addr", "", "optional introspection address (\":0\" = ephemeral): Prometheus /metrics, expvar, pprof")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tcp := dht.NewTCPClient()
	defer func() { _ = tcp.Close() }()
	client := dht.NewRetryClient(tcp, dht.DefaultRetryPolicy(), uint64(os.Getpid()))
	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		msrv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer func() { _ = msrv.Close() }()
		client.Instrument(reg, obs.WallClock)
		fmt.Printf("metrics on http://%s/metrics\n", msrv.Addr())
	}
	cfg := dht.DefaultNodeConfig()
	cfg.Storage = dht.NewStorage(*ttl, nil)
	srv, err := dht.ServeTCPNode(*listen, client, cfg)
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	node := srv.Node()
	node.Instrument(reg)
	fmt.Printf("node %s listening on %s\n", node.Self().ID, node.Self().Addr)
	if *join != "" {
		if err := node.Join(*join); err != nil {
			return err
		}
		fmt.Printf("joined ring via %s\n", *join)
	}

	maint, err := dht.Maintain(node, *stabilize)
	if err != nil {
		return err
	}
	defer maint.Stop()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("shutting down")
	return nil
}

func put(args []string) error {
	fs := flag.NewFlagSet("put", flag.ContinueOnError)
	node := fs.String("node", "127.0.0.1:9000", "any ring member")
	file := fs.String("file", "", "file content hash")
	value := fs.Float64("value", 0.9, "evaluation in [0,1]")
	keySeed := fs.Uint64("keyseed", 1, "deterministic identity seed for the publishing owner")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("put: -file is required")
	}
	owner, err := identity.Generate(identity.NewDeterministicReader(*keySeed))
	if err != nil {
		return err
	}
	info := eval.Info{
		FileID:     eval.FileID(*file),
		OwnerID:    owner.ID(),
		Evaluation: *value,
		Timestamp:  time.Duration(time.Now().UnixNano()),
	}
	if err := info.Sign(owner); err != nil {
		return err
	}
	tcp := dht.NewTCPClient()
	defer func() { _ = tcp.Close() }()
	client := dht.NewRetryClient(tcp, dht.DefaultRetryPolicy(), uint64(os.Getpid()))
	key := dht.HashKey(*file)
	root, err := client.FindSuccessor(obs.SpanContext{}, *node, key)
	if err != nil {
		return err
	}
	if err := client.Store(obs.SpanContext{}, root.Addr, []dht.StoredRecord{{Key: key, Info: info}}, true); err != nil {
		return err
	}
	fmt.Printf("stored evaluation %.2f of %s by %s at %s\n", *value, *file, owner.ID(), root.Addr)
	return nil
}

func get(args []string) error {
	fs := flag.NewFlagSet("get", flag.ContinueOnError)
	node := fs.String("node", "127.0.0.1:9000", "any ring member")
	file := fs.String("file", "", "file content hash")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("get: -file is required")
	}
	tcp := dht.NewTCPClient()
	defer func() { _ = tcp.Close() }()
	client := dht.NewRetryClient(tcp, dht.DefaultRetryPolicy(), uint64(os.Getpid()))
	key := dht.HashKey(*file)
	root, err := client.FindSuccessor(obs.SpanContext{}, *node, key)
	if err != nil {
		return err
	}
	recs, err := client.Retrieve(obs.SpanContext{}, root.Addr, key)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		fmt.Printf("no evaluations stored for %s\n", *file)
		return nil
	}
	for _, r := range recs {
		fmt.Printf("owner %s evaluated %s: %.2f\n", r.Info.OwnerID, r.Info.FileID, r.Info.Evaluation)
	}
	return nil
}

func demo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	nodes := fs.Int("nodes", 5, "ring size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes < 2 {
		return fmt.Errorf("demo needs at least 2 nodes")
	}
	tcp := dht.NewTCPClient()
	defer func() { _ = tcp.Close() }()
	client := dht.NewRetryClient(tcp, dht.DefaultRetryPolicy(), uint64(os.Getpid()))
	ring := make([]*dht.TCPNodeServer, 0, *nodes)
	defer func() {
		for _, srv := range ring {
			_ = srv.Close()
		}
	}()
	for i := 0; i < *nodes; i++ {
		cfg := dht.DefaultNodeConfig()
		cfg.Storage = dht.NewStorage(0, nil)
		srv, err := dht.ServeTCPNode("127.0.0.1:0", client, cfg)
		if err != nil {
			return err
		}
		ring = append(ring, srv)
		if i > 0 {
			if err := srv.Node().Join(ring[0].Node().Self().Addr); err != nil {
				return err
			}
		}
		fmt.Printf("node %d: %s (%s)\n", i, srv.Node().Self().Addr, srv.Node().Self().ID)
	}
	for round := 0; round < 2**nodes+6; round++ {
		for _, srv := range ring {
			srv.Node().Stabilize()
		}
	}
	for _, srv := range ring {
		srv.Node().FixAllFingers()
	}
	fmt.Println("ring stabilised")

	owner, err := identity.Generate(identity.NewDeterministicReader(42))
	if err != nil {
		return err
	}
	info := eval.Info{
		FileID:     "demo-file-hash",
		OwnerID:    owner.ID(),
		Evaluation: 0.87,
		Timestamp:  time.Duration(time.Now().UnixNano()),
	}
	if err := info.Sign(owner); err != nil {
		return err
	}
	key := dht.HashKey(string(info.FileID))
	if err := ring[0].Node().Publish([]dht.StoredRecord{{Key: key, Info: info}}); err != nil {
		return err
	}
	fmt.Printf("node 0 published signed evaluation %.2f of %q\n", info.Evaluation, info.FileID)

	recs, err := ring[*nodes-1].Node().Retrieve(obs.SpanContext{}, key)
	if err != nil {
		return err
	}
	for _, r := range recs {
		fmt.Printf("node %d retrieved: owner %s evaluated %q as %.2f\n",
			*nodes-1, r.Info.OwnerID, r.Info.FileID, r.Info.Evaluation)
	}
	return nil
}
