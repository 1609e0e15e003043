package dht

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"mdrep/internal/fault"
	"mdrep/internal/obs"
)

// byRingOrder returns the ring's nodes sorted by ID, so a test can name
// a node's neighbours.
func byRingOrder(r *Ring) []*Node {
	nodes := append([]*Node(nil), r.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Self().ID < nodes[j].Self().ID })
	return nodes
}

// keysHomedOn returns count distinct keys whose root is home, drawn in
// order from HashKey(prefix-i).
func keysHomedOn(t testing.TB, r *Ring, home *Node, prefix string, count int) []ID {
	t.Helper()
	refs := make([]NodeRef, len(r.Nodes))
	for i, n := range r.Nodes {
		refs[i] = n.Self()
	}
	var keys []ID
	for i := 0; len(keys) < count; i++ {
		if i > 100000 {
			t.Fatalf("no key homed on %s", home.Self().Addr)
		}
		key := HashKey(fmt.Sprintf("%s-%d", prefix, i))
		if ringSuccessorOracle(refs, key).Addr == home.Self().Addr {
			keys = append(keys, key)
		}
	}
	return keys
}

// arcOf returns the arc n remembers for the member at addr.
func arcOf(n *Node, addr string) (arc, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, a := range n.arcs {
		if a.member.Addr == addr {
			return a, true
		}
	}
	return arc{}, false
}

// retrieveCost retrieves key through via and returns the records and
// the RPCs the ring carried for it.
func retrieveCost(t *testing.T, r *Ring, via *Node, key ID) ([]StoredRecord, uint64) {
	t.Helper()
	r.Net.ResetMessages()
	recs, err := via.Retrieve(obs.SpanContext{}, key)
	if err != nil {
		t.Fatalf("retrieve %v via %s: %v", key, via.Self().Addr, err)
	}
	return recs, r.Net.Messages()
}

// On a warm ring a key in a remembered arc costs one RPC, whichever key
// of the arc it is, and a key in the node's own arc costs none.
func TestRetrieveKnownRootCostsOneRPC(t *testing.T) {
	r := buildRing(t, 8)
	ring := byRingOrder(r)
	via, member := ring[0], ring[4]
	remote := keysHomedOn(t, r, member, "memo-remote", 2)
	own := keysHomedOn(t, r, via, "memo-own", 1)[0]
	for _, key := range append(remote, own) {
		if err := r.Nodes[1].Publish([]StoredRecord{rec(key, "o", 0.5, 1)}); err != nil {
			t.Fatal(err)
		}
	}

	recs, cold := retrieveCost(t, r, via, remote[0])
	if len(recs) != 1 {
		t.Fatalf("cold retrieve found %d records, want 1", len(recs))
	}
	if cold < 3 {
		t.Fatalf("cold retrieve cost %d RPCs, want a lookup, the retrieve and one arc read", cold)
	}
	if _, ok := arcOf(via, member.Self().Addr); !ok {
		t.Fatal("the root's arc was not remembered")
	}
	for i, key := range remote {
		if recs, rpcs := retrieveCost(t, r, via, key); len(recs) != 1 || rpcs != 1 {
			t.Errorf("warm retrieve of remote key %d: %d records for %d RPCs, want 1 for 1", i, len(recs), rpcs)
		}
	}
	if recs, rpcs := retrieveCost(t, r, via, own); len(recs) != 1 || rpcs != 0 {
		t.Errorf("own-arc retrieve: %d records for %d RPCs, want 1 for 0", len(recs), rpcs)
	}
}

// An absent key in a remembered arc costs what it costs a cold node:
// the remembered member's empty answer stands as the root's when the
// lookup names that member again, and the arc is forgotten.
func TestRetrieveAbsentKeyCostsNoMore(t *testing.T) {
	cost := func(warm bool) (uint64, *Node, *Node) {
		r := buildRing(t, 8)
		ring := byRingOrder(r)
		via, member := ring[0], ring[4]
		keys := keysHomedOn(t, r, member, "memo-absent", 2)
		present, absent := keys[0], keys[1]
		if err := r.Nodes[1].Publish([]StoredRecord{rec(present, "o", 0.5, 1)}); err != nil {
			t.Fatal(err)
		}
		if warm {
			retrieveCost(t, r, via, present)
		}
		recs, rpcs := retrieveCost(t, r, via, absent)
		if len(recs) != 0 {
			t.Fatalf("absent key returned %d records", len(recs))
		}
		return rpcs, via, member
	}
	cold, _, _ := cost(false)
	warm, via, member := cost(true)
	if warm != cold {
		t.Errorf("absent key cost %d RPCs through the memo, %d on a cold node", warm, cold)
	}
	if _, ok := arcOf(via, member.Self().Addr); ok {
		t.Error("an arc whose member held nothing was kept")
	}
}

// When the root is the retrieving node itself, the replica walk reads
// the node's own successor list: an absent key in its own arc costs the
// lookup and one retrieve per successor, and no successors RPC.
func TestRetrieveOwnRootWalksLocalSuccessors(t *testing.T) {
	r := buildRing(t, 8)
	via := byRingOrder(r)[0]
	key := keysHomedOn(t, r, via, "memo-own-absent", 1)[0]
	r.Net.ResetMessages()
	if _, err := via.Lookup(obs.SpanContext{}, key); err != nil {
		t.Fatal(err)
	}
	lookup := r.Net.Messages()
	recs, rpcs := retrieveCost(t, r, via, key)
	if len(recs) != 0 {
		t.Fatalf("absent key returned %d records", len(recs))
	}
	if want := lookup + uint64(len(via.SuccessorList())); rpcs != want {
		t.Errorf("absent own-arc key cost %d RPCs, want %d: the lookup's %d and one retrieve per successor", rpcs, want, lookup)
	}
}

// A node that joins inside a remembered arc becomes the root of part
// of it, and its successor, the remembered member, keeps a copy of
// every record published after the join: the stale arc still reads a
// current record, for one RPC.
func TestRetrieveAfterJoinInsideArc(t *testing.T) {
	r := buildRing(t, 8)
	ring := byRingOrder(r)
	via, member := ring[0], ring[4]
	first := keysHomedOn(t, r, member, "memo-join", 1)[0]
	if err := r.Nodes[1].Publish([]StoredRecord{rec(first, "o", 0.5, 1)}); err != nil {
		t.Fatal(err)
	}
	retrieveCost(t, r, via, first)
	stale, ok := arcOf(via, member.Self().Addr)
	if !ok {
		t.Fatal("the root's arc was not remembered")
	}

	addr := ""
	for i := 0; addr == ""; i++ {
		if a := fmt.Sprintf("mem://joiner-%d", i); BetweenOpen(HashKey(a), stale.lo, member.Self().ID) {
			addr = a
		}
	}
	cfg := DefaultNodeConfig()
	cfg.Storage = NewStorage(0, nil)
	joiner, err := NewNode(addr, r.Net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Net.Register(addr, joiner)
	if err := joiner.Join(r.Nodes[1].Self().Addr); err != nil {
		t.Fatal(err)
	}
	r.Nodes = append(r.Nodes, joiner)
	r.Converge(30)

	var key ID
	for i := 0; ; i++ {
		if key = HashKey(fmt.Sprintf("memo-after-join-%d", i)); Between(key, stale.lo, joiner.Self().ID) {
			break
		}
	}
	if root, err := r.Nodes[2].Lookup(obs.SpanContext{}, key); err != nil || root.Addr != addr {
		t.Fatalf("lookup = %v, %v; the joiner should be the key's root", root, err)
	}
	if root, via := via.knownRoot(key); via != viaMemo || root.Addr != member.Self().Addr {
		t.Fatalf("known root = %s via %s, want the stale arc of %s", root.Addr, via, member.Self().Addr)
	}
	if err := r.Nodes[2].Publish([]StoredRecord{rec(key, "late", 0.7, 2)}); err != nil {
		t.Fatal(err)
	}
	recs, rpcs := retrieveCost(t, r, via, key)
	if len(recs) != 1 || recs[0].Info.OwnerID != "late" || rpcs != 1 {
		t.Fatalf("retrieve through the stale arc: %v for %d RPCs, want the late record for 1", recs, rpcs)
	}

	// A Maintainer tick re-reads the arc: it now starts at the joiner.
	via.refreshArc(0)
	if a, _ := arcOf(via, member.Self().Addr); a.lo != joiner.Self().ID {
		t.Errorf("re-read arc starts at %v, want the joiner's ID %v", a.lo, joiner.Self().ID)
	}
	if _, how := via.knownRoot(key); how != viaLookup {
		t.Errorf("after the re-read the key is known via %s, want a lookup", how)
	}
}

// A remembered member that crashes sends the next Retrieve down the
// lookup path, with the arc forgotten. Once the ring has repaired, that
// path reads the replica at the new root; before, it fails with the
// fault class a cold node gets.
func TestRetrieveMemberCrash(t *testing.T) {
	build := func() (*Ring, []*Node, ID) {
		r, err := NewRing(8, func(int) NodeConfig {
			return NodeConfig{SuccessorListLen: 1, Storage: NewStorage(0, nil)}
		})
		if err != nil {
			t.Fatal(err)
		}
		ring := byRingOrder(r)
		key := keysHomedOn(t, r, ring[3], "memo-crash", 1)[0]
		if err := r.Nodes[1].Publish([]StoredRecord{rec(key, "o", 0.5, 1)}); err != nil {
			t.Fatal(err)
		}
		return r, ring, key
	}

	t.Run("repaired", func(t *testing.T) {
		r, ring, key := build()
		via, member, heir := ring[0], ring[3], ring[4]
		retrieveCost(t, r, via, key)
		r.Net.Fail(member.Self().Addr)
		for round := 0; round < 30; round++ {
			for _, n := range r.Nodes {
				if n != member {
					n.Stabilize()
				}
			}
		}
		for _, n := range r.Nodes {
			if n != member {
				n.FixAllFingers()
			}
		}
		recs, err := via.Retrieve(obs.SpanContext{}, key)
		if err != nil || len(recs) != 1 {
			t.Fatalf("retrieve after the member crashed: %d records, %v", len(recs), err)
		}
		if _, ok := arcOf(via, member.Self().Addr); ok {
			t.Error("the crashed member's arc was kept")
		}
		if _, ok := arcOf(via, heir.Self().Addr); !ok {
			t.Error("the new root's arc was not learned")
		}
	})

	t.Run("unrepaired", func(t *testing.T) {
		var errs [2]error
		for i, warm := range []bool{false, true} {
			r, ring, key := build()
			via, member := ring[0], ring[3]
			if warm {
				retrieveCost(t, r, via, key)
			}
			r.Net.Fail(member.Self().Addr)
			r.Net.Fail(ring[4].Self().Addr) // the one replica
			_, errs[i] = via.Retrieve(obs.SpanContext{}, key)
			if _, ok := arcOf(via, member.Self().Addr); ok {
				t.Errorf("warm=%v: the crashed member's arc was kept", warm)
			}
		}
		if !errors.Is(errs[0], ErrNodeUnreachable) {
			t.Fatalf("cold node: %v, want ErrNodeUnreachable", errs[0])
		}
		if !errors.Is(errs[1], ErrNodeUnreachable) || !fault.Retryable(errs[1]) {
			t.Fatalf("warm node: %v, want the cold node's ErrNodeUnreachable", errs[1])
		}
	})
}

// The upkeep forgets members it finds unreachable: a Maintainer tick
// re-reading a dead member's arc, and Stabilize dropping a dead
// successor.
func TestRetrieveArcUpkeep(t *testing.T) {
	r := buildRing(t, 8)
	ring := byRingOrder(r)
	via, member, succ := ring[0], ring[4], ring[1]
	for _, m := range []*Node{member, succ} {
		key := keysHomedOn(t, r, m, "memo-upkeep", 1)[0]
		if err := r.Nodes[2].Publish([]StoredRecord{rec(key, "o", 0.5, 1)}); err != nil {
			t.Fatal(err)
		}
		retrieveCost(t, r, via, key)
	}
	if len(via.arcs) != 2 {
		t.Fatalf("remembered %d arcs, want 2", len(via.arcs))
	}

	r.Net.Fail(member.Self().Addr)
	for i := 0; i < 2; i++ {
		via.refreshArc(i)
	}
	if _, ok := arcOf(via, member.Self().Addr); ok {
		t.Error("re-reading an unreachable member kept its arc")
	}
	if _, ok := arcOf(via, succ.Self().Addr); !ok {
		t.Error("re-reading a live member forgot its arc")
	}

	r.Net.Fail(succ.Self().Addr)
	via.Stabilize()
	if _, ok := arcOf(via, succ.Self().Addr); ok {
		t.Error("Stabilize dropped a dead successor but kept its arc")
	}
}

// Retrieves from several nodes race with Stabilize and with every
// node's Maintainer re-reading arcs; run under -race.
func TestRetrieveConcurrentWithUpkeep(t *testing.T) {
	r := buildRing(t, 8)
	keys := make([]ID, 24)
	for i := range keys {
		keys[i] = HashKey(fmt.Sprintf("memo-concurrent-%d", i))
		if err := r.Nodes[i%8].Publish([]StoredRecord{rec(keys[i], "o", 0.5, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	var maintainers []*Maintainer
	for _, n := range r.Nodes {
		m, err := Maintain(n, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		maintainers = append(maintainers, m)
	}
	defer func() {
		for _, m := range maintainers {
			m.Stop()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			via := r.Nodes[g*2]
			for i := 0; i < 100; i++ {
				key := keys[(g*7+i)%len(keys)]
				recs, err := via.Retrieve(obs.SpanContext{}, key)
				if err != nil || len(recs) != 1 {
					t.Errorf("retrieve via node %d: %d records, %v", g*2, len(recs), err)
					return
				}
				if i%10 == 0 {
					via.Stabilize()
				}
			}
		}(g)
	}
	wg.Wait()
}
