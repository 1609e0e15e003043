// DHT network (the §4.1 story): an in-process ring of real TCP nodes
// storing signed EvaluationInfo records with the file index. Demonstrates
// publication, retrieval from another node, forgery rejection, and
// fault-tolerant retrieval after a node failure.
package main

import (
	"fmt"
	"log"
	"time"

	"mdrep/internal/dht"
	"mdrep/internal/eval"
	"mdrep/internal/identity"
	"mdrep/internal/obs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A PKI directory shared by all replicas (§4.2: signatures defeat
	// forged evaluations).
	dir := identity.NewDirectory()
	alice, err := identity.Generate(identity.NewDeterministicReader(1))
	if err != nil {
		return err
	}
	if _, err := dir.Register(alice.PublicKey()); err != nil {
		return err
	}

	// Six verifying DHT nodes over loopback TCP.
	client := dht.NewTCPClient()
	defer func() { _ = client.Close() }()
	const n = 6
	servers := make([]*dht.TCPNodeServer, 0, n)
	defer func() {
		for _, s := range servers {
			_ = s.Close()
		}
	}()
	for i := 0; i < n; i++ {
		cfg := dht.NodeConfig{SuccessorListLen: 3, Storage: dht.NewStorage(0, dir)}
		srv, err := dht.ServeTCPNode("127.0.0.1:0", client, cfg)
		if err != nil {
			return err
		}
		servers = append(servers, srv)
		if i > 0 {
			if err := srv.Node().Join(servers[0].Addr()); err != nil {
				return err
			}
		}
	}
	for round := 0; round < 2*n+6; round++ {
		for _, s := range servers {
			s.Node().Stabilize()
		}
	}
	for _, s := range servers {
		s.Node().FixAllFingers()
	}
	fmt.Printf("ring of %d TCP nodes stabilised\n", n)

	// Alice publishes her file's index entry with her signed evaluation.
	info := eval.Info{
		FileID:     "4c6f72656d20697073756d",
		OwnerID:    alice.ID(),
		Evaluation: 0.92,
		Timestamp:  time.Duration(1),
	}
	if err := info.Sign(alice); err != nil {
		return err
	}
	key := dht.HashKey(string(info.FileID))
	if err := servers[0].Node().Publish([]dht.StoredRecord{{Key: key, Info: info}}); err != nil {
		return err
	}
	fmt.Printf("alice published evaluation %.2f of %s\n", info.Evaluation, info.FileID)

	// Any node can retrieve it before deciding to download (§4.1 step 3).
	recs, err := servers[n-1].Node().Retrieve(obs.SpanContext{}, key)
	if err != nil {
		return err
	}
	fmt.Printf("node %d retrieved %d evaluation(s); first: %.2f by %s\n",
		n-1, len(recs), recs[0].Info.Evaluation, recs[0].Info.OwnerID)

	// A forger re-publishes Alice's record with the score flipped; the
	// verifying replicas drop it.
	forged := info
	forged.Evaluation = 0.05
	forged.Timestamp = time.Duration(2)
	if err := servers[2].Node().Publish([]dht.StoredRecord{{Key: key, Info: forged}}); err != nil {
		return err
	}
	recs, err = servers[n-1].Node().Retrieve(obs.SpanContext{}, key)
	if err != nil {
		return err
	}
	fmt.Printf("after forgery attempt: evaluation still %.2f (signature check held)\n",
		recs[0].Info.Evaluation)

	// Kill the key's root; the successor-list replicas keep the record
	// available once the ring stabilises around the hole.
	root, err := servers[0].Node().Lookup(obs.SpanContext{}, key)
	if err != nil {
		return err
	}
	var survivors []*dht.TCPNodeServer
	for _, s := range servers {
		if s.Addr() == root.Addr {
			_ = s.Close()
			continue
		}
		survivors = append(survivors, s)
	}
	if len(survivors) == n {
		fmt.Println("(root was an external node; skipping failure demo)")
		return nil
	}
	for round := 0; round < 4*n; round++ {
		for _, s := range survivors {
			s.Node().Stabilize()
		}
	}
	for _, s := range survivors {
		s.Node().FixAllFingers()
	}
	recs, err = survivors[0].Node().Retrieve(obs.SpanContext{}, key)
	if err != nil {
		return err
	}
	fmt.Printf("after killing the root node: still %d evaluation(s) retrievable\n", len(recs))
	return nil
}
