package dht

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/identity"
	"mdrep/internal/obs"
)

// ringSuccessorOracle computes, by brute force, the node that should own
// key among the given refs.
func ringSuccessorOracle(refs []NodeRef, key ID) NodeRef {
	sorted := make([]NodeRef, len(refs))
	copy(sorted, refs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for _, r := range sorted {
		if r.ID >= key {
			return r
		}
	}
	return sorted[0] // wrap
}

func buildRing(t *testing.T, n int) *Ring {
	t.Helper()
	r, err := NewRing(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewNodeValidation(t *testing.T) {
	net := NewMemNet()
	if _, err := NewNode("", net, DefaultNodeConfig()); err == nil {
		t.Fatal("empty address accepted")
	}
	if _, err := NewNode("a", nil, DefaultNodeConfig()); err == nil {
		t.Fatal("nil client accepted")
	}
	if _, err := NewNode("a", net, NodeConfig{SuccessorListLen: 0, Storage: NewStorage(0, nil)}); err == nil {
		t.Fatal("bad successor list length accepted")
	}
	if _, err := NewNode("a", net, NodeConfig{SuccessorListLen: 2}); err == nil {
		t.Fatal("nil storage accepted")
	}
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	net := NewMemNet()
	n, err := NewNode("solo", net, DefaultNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	net.Register(n.Self().Addr, n)
	for _, key := range []ID{0, 1, 1 << 40, ^ID(0)} {
		ref, err := n.Lookup(obs.SpanContext{}, key)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Addr != n.Self().Addr {
			t.Fatalf("single node does not own key %v", key)
		}
	}
}

func TestRingLookupMatchesOracle(t *testing.T) {
	r := buildRing(t, 24)
	refs := make([]NodeRef, len(r.Nodes))
	for i, n := range r.Nodes {
		refs[i] = n.Self()
	}
	keys := []ID{0, 1, 1 << 20, 1 << 40, 1 << 60, ^ID(0)}
	for i := 0; i < 64; i++ {
		keys = append(keys, HashKey(ID(uint64(i*7919)).String()))
	}
	for _, key := range keys {
		want := ringSuccessorOracle(refs, key)
		for _, start := range []*Node{r.Nodes[0], r.Nodes[7], r.Nodes[23]} {
			got, err := start.Lookup(obs.SpanContext{}, key)
			if err != nil {
				t.Fatal(err)
			}
			if got.Addr != want.Addr {
				t.Fatalf("Lookup(%v) from %s = %s, oracle says %s",
					key, start.Self().Addr, got.Addr, want.Addr)
			}
		}
	}
}

func TestRingSuccessorsFormCycle(t *testing.T) {
	r := buildRing(t, 12)
	// Following successor pointers from any node must visit all 12 nodes
	// and return to the start.
	start := r.Nodes[0].Self()
	seen := map[string]struct{}{start.Addr: {}}
	cur := r.Nodes[0].Successor()
	for steps := 0; steps < 20 && cur.Addr != start.Addr; steps++ {
		seen[cur.Addr] = struct{}{}
		var node *Node
		for _, n := range r.Nodes {
			if n.Self().Addr == cur.Addr {
				node = n
				break
			}
		}
		if node == nil {
			t.Fatalf("successor %s is not a ring member", cur.Addr)
		}
		cur = node.Successor()
	}
	if cur.Addr != start.Addr {
		t.Fatal("successor pointers do not close the cycle")
	}
	if len(seen) != 12 {
		t.Fatalf("cycle visited %d of 12 nodes", len(seen))
	}
}

func TestPublishRetrieve(t *testing.T) {
	r := buildRing(t, 16)
	key := HashKey("some-file-hash")
	recs := []StoredRecord{rec(key, "owner-1", 0.8, 1), rec(key, "owner-2", 0.3, 1)}
	if err := r.Nodes[3].Publish(recs); err != nil {
		t.Fatal(err)
	}
	// Any node can retrieve.
	for _, n := range []*Node{r.Nodes[0], r.Nodes[9], r.Nodes[15]} {
		got, err := n.Retrieve(obs.SpanContext{}, key)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("retrieved %d records from %s", len(got), n.Self().Addr)
		}
	}
}

// storeLog records, in arrival order, the keys of the replicating
// stores its node receives: the stores a publish sends to each key's root.
type storeLog struct {
	handler
	mu   *sync.Mutex
	keys *[]ID
}

func (s storeLog) HandleStore(sc obs.SpanContext, recs []StoredRecord, replicate bool) {
	if replicate {
		s.mu.Lock()
		for _, r := range recs {
			*s.keys = append(*s.keys, r.Key)
		}
		s.mu.Unlock()
	}
	s.handler.HandleStore(sc, recs, replicate)
}

// TestPublishSendsKeysInAscendingOrder: a 16-key batch given in
// descending key order leaves as store RPCs in ascending key order, the
// same on two fresh rings.
func TestPublishSendsKeysInAscendingOrder(t *testing.T) {
	var logs [2][]ID
	for i := range logs {
		r := buildRing(t, 8)
		via := r.Nodes[0]
		pred, ok := via.PredecessorRef()
		if !ok {
			t.Fatal("ring did not converge")
		}
		var mu sync.Mutex
		for _, n := range r.Nodes {
			r.Net.Register(n.Self().Addr, storeLog{handler: n, mu: &mu, keys: &logs[i]})
		}
		var recs []StoredRecord
		for k := 0; len(recs) < 16; k++ {
			// Keys homed off via, so each group leaves as a store RPC.
			if key := HashKey(fmt.Sprintf("publish-order-%d", k)); !Between(key, pred.ID, via.Self().ID) {
				recs = append(recs, rec(key, "o", 0.5, 1))
			}
		}
		slices.SortFunc(recs, func(a, b StoredRecord) int { return cmp.Compare(b.Key, a.Key) })
		if err := via.Publish(recs); err != nil {
			t.Fatal(err)
		}
	}
	if len(logs[0]) != 16 || !slices.IsSorted(logs[0]) || !slices.Equal(logs[0], logs[1]) {
		t.Fatalf("store RPCs by key:\n%v\n%v\nwant 16 keys in ascending order on both rings", logs[0], logs[1])
	}
}

func TestPublishReplicates(t *testing.T) {
	r := buildRing(t, 16)
	key := HashKey("replicated-file")
	if err := r.Nodes[0].Publish([]StoredRecord{rec(key, "o", 0.9, 1)}); err != nil {
		t.Fatal(err)
	}
	holders := 0
	for _, n := range r.Nodes {
		if len(n.cfg.Storage.Get(key)) > 0 {
			holders++
		}
	}
	// Root + up to r-1 successors (default r = 4).
	if holders < 2 {
		t.Fatalf("record held by %d nodes, want replication", holders)
	}
}

func TestRetrieveSurvivesRootFailure(t *testing.T) {
	r := buildRing(t, 16)
	key := HashKey("fault-tolerant-file")
	if err := r.Nodes[0].Publish([]StoredRecord{rec(key, "o", 0.9, 1)}); err != nil {
		t.Fatal(err)
	}
	root, err := r.Nodes[0].Lookup(obs.SpanContext{}, key)
	if err != nil {
		t.Fatal(err)
	}
	if root.Addr == r.Nodes[0].Self().Addr {
		t.Skip("publisher is the root; pick a different key layout")
	}
	r.Net.Fail(root.Addr)
	// Survivors stabilise; the first replica becomes the key's new root.
	for round := 0; round < 30; round++ {
		for _, n := range r.Nodes {
			if n.Self().Addr != root.Addr {
				n.Stabilize()
			}
		}
	}
	for _, n := range r.Nodes {
		if n.Self().Addr != root.Addr {
			n.FixAllFingers()
		}
	}
	got, err := r.Nodes[0].Retrieve(obs.SpanContext{}, key)
	if err != nil {
		t.Fatalf("retrieve after root failure: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("retrieved %d records after root failure", len(got))
	}
}

func TestRingHealsAfterNodeFailure(t *testing.T) {
	r := buildRing(t, 12)
	// Kill three nodes, then stabilise.
	for _, i := range []int{2, 5, 8} {
		r.Net.Fail(r.Nodes[i].Self().Addr)
	}
	alive := make([]*Node, 0, 9)
	var aliveRefs []NodeRef
	for i, n := range r.Nodes {
		if i == 2 || i == 5 || i == 8 {
			continue
		}
		alive = append(alive, n)
		aliveRefs = append(aliveRefs, n.Self())
	}
	for round := 0; round < 30; round++ {
		for _, n := range alive {
			n.Stabilize()
		}
	}
	for _, n := range alive {
		n.FixAllFingers()
	}
	// Lookups from every survivor must agree with the oracle over
	// survivors.
	for _, key := range []ID{1 << 10, 1 << 30, 1 << 50, ^ID(2)} {
		want := ringSuccessorOracle(aliveRefs, key)
		got, err := alive[0].Lookup(obs.SpanContext{}, key)
		if err != nil {
			t.Fatal(err)
		}
		if got.Addr != want.Addr {
			t.Fatalf("post-failure Lookup(%v) = %s, want %s", key, got.Addr, want.Addr)
		}
	}
}

func TestJoinAfterStart(t *testing.T) {
	r := buildRing(t, 8)
	// A 9th node joins late.
	cfg := DefaultNodeConfig()
	cfg.Storage = NewStorage(0, nil)
	late, err := NewNode("mem://late-joiner", r.Net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Net.Register(late.Self().Addr, late)
	if err := late.Join(r.Nodes[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	r.Nodes = append(r.Nodes, late)
	r.Converge(30)

	refs := make([]NodeRef, len(r.Nodes))
	for i, n := range r.Nodes {
		refs[i] = n.Self()
	}
	key := late.Self().ID // the joiner must own its own ID
	want := ringSuccessorOracle(refs, key)
	got, err := r.Nodes[0].Lookup(obs.SpanContext{}, key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != want.Addr {
		t.Fatalf("lookup of joiner's ID = %s, want %s", got.Addr, want.Addr)
	}
}

func TestSignedEndToEndPublish(t *testing.T) {
	// Full §4.1 flow: signed EvaluationInfo published into a verifying
	// ring; forged records are rejected by replicas.
	owner, err := identity.Generate(identity.NewDeterministicReader(42))
	if err != nil {
		t.Fatal(err)
	}
	dir := identity.NewDirectory()
	if _, err := dir.Register(owner.PublicKey()); err != nil {
		t.Fatal(err)
	}
	ring, err := NewRing(8, func(int) NodeConfig {
		return NodeConfig{SuccessorListLen: 3, Storage: NewStorage(0, dir)}
	})
	if err != nil {
		t.Fatal(err)
	}
	info := eval.Info{FileID: "abc", OwnerID: owner.ID(), Evaluation: 0.8, Timestamp: 5}
	if err := info.Sign(owner); err != nil {
		t.Fatal(err)
	}
	key := HashKey(string(info.FileID))
	if err := ring.Nodes[0].Publish([]StoredRecord{{Key: key, Info: info}}); err != nil {
		t.Fatal(err)
	}
	got, err := ring.Nodes[5].Retrieve(obs.SpanContext{}, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Info.Evaluation != 0.8 {
		t.Fatalf("signed record not retrievable: %+v", got)
	}

	forged := info
	forged.Evaluation = 0.1
	if err := ring.Nodes[0].Publish([]StoredRecord{{Key: key, Info: forged}}); err != nil {
		t.Fatal(err)
	}
	got, err = ring.Nodes[5].Retrieve(obs.SpanContext{}, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Info.Evaluation != 0.8 {
		t.Fatalf("forged record accepted: %+v", got)
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	r := buildRing(t, 64)
	r.Net.ResetMessages()
	for _, n := range r.Nodes {
		n.mu.Lock()
		n.lookupHops = 0
		n.mu.Unlock()
	}
	const lookups = 200
	for i := 0; i < lookups; i++ {
		if _, err := r.Nodes[i%64].Lookup(obs.SpanContext{}, HashKey(time.Duration(i).String())); err != nil {
			t.Fatal(err)
		}
	}
	var totalHops uint64
	for _, n := range r.Nodes {
		totalHops += n.LookupHops()
	}
	meanHops := float64(totalHops) / lookups
	// log2(64) = 6; allow generous slack but reject linear scans.
	if meanHops > 12 {
		t.Fatalf("mean lookup hops %v, want O(log n) ≈ 6", meanHops)
	}
}

func TestLeaveHandsOffRecords(t *testing.T) {
	r := buildRing(t, 10)
	key := HashKey("handoff-file")
	if err := r.Nodes[0].Publish([]StoredRecord{rec(key, "o", 0.9, 1)}); err != nil {
		t.Fatal(err)
	}
	root, err := r.Nodes[0].Lookup(obs.SpanContext{}, key)
	if err != nil {
		t.Fatal(err)
	}
	var leaving *Node
	for _, n := range r.Nodes {
		if n.Self().Addr == root.Addr {
			leaving = n
			break
		}
	}
	if leaving == nil {
		t.Fatal("root not in ring")
	}
	if err := leaving.Leave(); err != nil {
		t.Fatal(err)
	}
	r.Net.Fail(leaving.Self().Addr)
	// Survivors stabilise quickly because Leave pre-notified.
	for round := 0; round < 30; round++ {
		for _, n := range r.Nodes {
			if n.Self().Addr != leaving.Self().Addr {
				n.Stabilize()
			}
		}
	}
	for _, n := range r.Nodes {
		if n.Self().Addr != leaving.Self().Addr {
			n.FixAllFingers()
		}
	}
	start := r.Nodes[0]
	if start.Self().Addr == leaving.Self().Addr {
		start = r.Nodes[1]
	}
	got, err := start.Retrieve(obs.SpanContext{}, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("record lost on graceful leave: %d records", len(got))
	}
}

func TestLeaveLastNodeNoop(t *testing.T) {
	net := NewMemNet()
	n, err := NewNode("solo", net, DefaultNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	net.Register(n.Self().Addr, n)
	if err := n.Leave(); err != nil {
		t.Fatal(err)
	}
}

// TestRingSurvivesMessageLoss: with 10% of RPCs dropped, stabilisation
// still converges and publish/retrieve still succeeds (the successor-list
// design tolerates transient failures).
func TestRingSurvivesMessageLoss(t *testing.T) {
	r := buildRing(t, 12)
	r.Net.SetLossRate(0.1)
	// Extra stabilisation under loss.
	r.Converge(40)
	key := HashKey("lossy-file")
	var publishErr error
	for attempt := 0; attempt < 5; attempt++ {
		if publishErr = r.Nodes[2].Publish([]StoredRecord{rec(key, "o", 0.9, 1)}); publishErr == nil {
			break
		}
	}
	if publishErr != nil {
		t.Fatalf("publish never succeeded under 10%% loss: %v", publishErr)
	}
	got := 0
	for attempt := 0; attempt < 10 && got == 0; attempt++ {
		if recs, err := r.Nodes[9].Retrieve(obs.SpanContext{}, key); err == nil {
			got = len(recs)
		}
	}
	if got == 0 {
		t.Fatal("record unreachable under 10% message loss")
	}
	r.Net.SetLossRate(0)
}

func TestMaintainerIntegratesJoiner(t *testing.T) {
	// Two nodes, no manual Stabilize calls: the maintainers must close
	// the ring on their own.
	net := NewMemNet()
	mk := func(name string) *Node {
		cfg := DefaultNodeConfig()
		cfg.Storage = NewStorage(0, nil)
		n, err := NewNode(name, net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		net.Register(n.Self().Addr, n)
		return n
	}
	a := mk("mem://maint-a")
	b := mk("mem://maint-b")
	if err := b.Join(a.Self().Addr); err != nil {
		t.Fatal(err)
	}
	ma, err := Maintain(a, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Stop()
	mb, err := Maintain(b, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Stop()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if a.Successor().Addr == b.Self().Addr && b.Successor().Addr == a.Self().Addr {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("maintainers never closed the ring: a.succ=%s b.succ=%s",
		a.Successor().Addr, b.Successor().Addr)
}

func TestMaintainValidation(t *testing.T) {
	if _, err := Maintain(nil, time.Second); err == nil {
		t.Fatal("nil node accepted")
	}
	net := NewMemNet()
	n, err := NewNode("mem://maint-v", net, DefaultNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Maintain(n, 0); err == nil {
		t.Fatal("zero interval accepted")
	}
}
