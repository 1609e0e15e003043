package main

import (
	"fmt"

	"mdrep/internal/dht"
	"mdrep/internal/obs"
	"mdrep/internal/sim"
)

// ringAddrs derives n loopback listen addresses from the seed. A Chord ID
// is the hash of the node's address, so the addresses fix the IDs, key
// ownership and hop counts: the same seed gives the same ring, which
// ephemeral ports would not. Each address is the first seeded candidate
// whose ID falls near the middle of its own 1/n arc, so every seed gets
// an evenly spaced ring and the cost of a lookup does not depend on the
// seed. Hosts are drawn from 127.0.0.0/8 away from 127.0.0.1 and ports
// from below the kernel's ephemeral range, so no dialled connection's
// local address can collide with a listener.
func ringAddrs(seed uint64, n int) []string {
	rng := sim.NewRNG(mix(seed, "ring", uint64(n)))
	arc := ^uint64(0)/uint64(n) + 1
	phase := rng.Uint64()
	addrs := make([]string, n)
	for i := range addrs {
		mid := phase + uint64(i)*arc + arc/2
		for {
			addr := fmt.Sprintf("127.%d.%d.%d:%d", 1+rng.Intn(254), rng.Intn(256), 1+rng.Intn(254), 20000+rng.Intn(10000))
			d := uint64(dht.HashKey(addr)) - mid
			if d < arc/8 || -d < arc/8 {
				addrs[i] = addr
				break
			}
		}
	}
	return addrs
}

// ring is a stabilised Chord ring of TCP nodes on loopback.
type ring struct {
	servers []*dht.TCPNodeServer
	nodes   []*dht.Node
}

// startRing serves one node per address, joins them through the first
// and runs stabilisation and finger repair to a fixed point, all in a
// fixed order so the finished ring is the same on every run. Each node
// gets its own client from newClient.
func startRing(addrs []string, storage func() *dht.Storage, newClient func() dht.Client) (*ring, error) {
	r := &ring{}
	for i, addr := range addrs {
		srv, err := dht.ServeTCPNode(addr, newClient(), dht.NodeConfig{SuccessorListLen: 3, Storage: storage()})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("serve node %s: %w", addr, err)
		}
		r.servers = append(r.servers, srv)
		r.nodes = append(r.nodes, srv.Node())
		if i > 0 {
			if err := srv.Node().Join(addrs[0]); err != nil {
				r.close()
				return nil, err
			}
		}
	}
	for round := 0; round < 2*len(addrs)+6; round++ {
		for _, n := range r.nodes {
			n.Stabilize()
		}
	}
	for _, n := range r.nodes {
		n.FixAllFingers()
	}
	return r, nil
}

// lookupHops sums the FindSuccessor hops every node has served.
func (r *ring) lookupHops() float64 {
	var total uint64
	for _, n := range r.nodes {
		total += n.LookupHops()
	}
	return float64(total)
}

func (r *ring) close() {
	for _, s := range r.servers {
		_ = s.Close()
	}
}

// tracedClient times every RPC a node issues, including those a server
// forwards while handling a request (lookup forwarding, replication).
type tracedClient struct {
	inner dht.Client
	tr    *tracer
}

func (c tracedClient) FindSuccessor(sc obs.SpanContext, addr string, id dht.ID) (dht.NodeRef, error) {
	return timed(c.tr, kDHTRPC, func() (dht.NodeRef, error) { return c.inner.FindSuccessor(sc, addr, id) })
}

func (c tracedClient) Successors(sc obs.SpanContext, addr string) ([]dht.NodeRef, error) {
	return timed(c.tr, kDHTRPC, func() ([]dht.NodeRef, error) { return c.inner.Successors(sc, addr) })
}

func (c tracedClient) Predecessor(sc obs.SpanContext, addr string) (dht.NodeRef, bool, error) {
	var ok bool
	ref, err := timed(c.tr, kDHTRPC, func() (dht.NodeRef, error) {
		ref, has, err := c.inner.Predecessor(sc, addr)
		ok = has
		return ref, err
	})
	return ref, ok, err
}

func (c tracedClient) Notify(sc obs.SpanContext, addr string, self dht.NodeRef) error {
	_, err := timed(c.tr, kDHTRPC, func() (struct{}, error) { return struct{}{}, c.inner.Notify(sc, addr, self) })
	return err
}

func (c tracedClient) Ping(sc obs.SpanContext, addr string) error {
	_, err := timed(c.tr, kDHTRPC, func() (struct{}, error) { return struct{}{}, c.inner.Ping(sc, addr) })
	return err
}

func (c tracedClient) Store(sc obs.SpanContext, addr string, recs []dht.StoredRecord, replicate bool) error {
	_, err := timed(c.tr, kDHTStoreRPC, func() (struct{}, error) { return struct{}{}, c.inner.Store(sc, addr, recs, replicate) })
	return err
}

func (c tracedClient) Retrieve(sc obs.SpanContext, addr string, key dht.ID) ([]dht.StoredRecord, error) {
	return timed(c.tr, kDHTRPC, func() ([]dht.StoredRecord, error) { return c.inner.Retrieve(sc, addr, key) })
}

// ringClient returns the client factory for a ring: the bare TCP client
// in untraced runs, a traced wrapper around it otherwise.
func ringClient(tr *tracer) func() dht.Client {
	return func() dht.Client {
		if tr == nil {
			return dht.NewTCPClient()
		}
		return tracedClient{inner: dht.NewTCPClient(), tr: tr}
	}
}
