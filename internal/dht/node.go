package dht

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mdrep/internal/fault"
	"mdrep/internal/obs"
)

// NodeConfig parameterises one DHT node.
type NodeConfig struct {
	// SuccessorListLen is the fault-tolerance depth r. A published
	// record is stored at its key's root and at each of the root's r
	// successors: r + 1 copies.
	SuccessorListLen int
	// Storage is the node's record store (required).
	Storage *Storage
}

// DefaultNodeConfig returns r=4 and an unverified store with a 1-hour
// TTL. Lookup termination needs no hop bound: every forwarding step
// strictly shrinks the ring distance to the target.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		SuccessorListLen: 4,
		Storage:          NewStorage(time.Hour, nil),
	}
}

// Validate checks the configuration.
func (c NodeConfig) Validate() error {
	if c.SuccessorListLen < 1 {
		return fault.Terminal(errors.New("dht: successor list length must be >= 1"))
	}
	if c.Storage == nil {
		return fault.Terminal(errors.New("dht: nil storage"))
	}
	return nil
}

// Node is one Chord participant. All exported methods are safe for
// concurrent use; internal state is guarded by mu, and no RPC is issued
// while mu is held (transports may call back into the node).
type Node struct {
	self   NodeRef
	client Client
	cfg    NodeConfig

	mu      sync.RWMutex
	succs   []NodeRef // succs[0] is the immediate successor
	pred    NodeRef
	hasPred bool
	fingers [Bits]NodeRef
	// arcs remembers, sorted by member ID, the arc of each ring member
	// a Retrieve has met as a root (roots.go): at most one per member.
	arcs []arc

	// Lookups counts FindSuccessor hops served, for experiment E6.
	lookupHops uint64

	// obs is the optional ring-metrics surface (see Instrument).
	obs *nodeObs
}

// NewNode builds a node addressed at addr using the given client.
func NewNode(addr string, client Client, cfg NodeConfig) (*Node, error) {
	if addr == "" {
		return nil, fault.Terminal(errors.New("dht: empty address"))
	}
	if client == nil {
		return nil, fault.Terminal(errors.New("dht: nil client"))
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Node{self: RefFromAddr(addr), client: client, cfg: cfg}
	// A fresh node is its own ring.
	n.succs = []NodeRef{n.self}
	return n, nil
}

// Self returns the node's ref.
func (n *Node) Self() NodeRef { return n.self }

// Successor returns the immediate successor.
func (n *Node) Successor() NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.succs[0]
}

// SuccessorList returns a copy of the successor list.
func (n *Node) SuccessorList() []NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]NodeRef, len(n.succs))
	copy(out, n.succs)
	return out
}

// PredecessorRef returns the predecessor, if known.
func (n *Node) PredecessorRef() (NodeRef, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.pred, n.hasPred
}

// LookupHops returns the number of FindSuccessor hops this node has
// served.
func (n *Node) LookupHops() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.lookupHops
}

// Join points the node at an existing ring member and resolves its
// successor. The periodic Stabilize calls then integrate it fully.
func (n *Node) Join(bootstrap string) error {
	succ, err := n.client.FindSuccessor(obs.SpanContext{}, bootstrap, n.self.ID)
	if err != nil {
		return fmt.Errorf("dht: join via %s: %w", bootstrap, err)
	}
	if succ.Addr == n.self.Addr {
		// A stale entry for our own address is still circulating (we
		// crashed and came back); joining "through ourselves" would leave
		// the node outside the ring.
		return fault.Terminal(fmt.Errorf("dht: join via %s resolved to self", bootstrap))
	}
	n.mu.Lock()
	n.succs = []NodeRef{succ}
	n.hasPred = false
	n.mu.Unlock()
	// Deepen the successor list right away: a fresh node with a single
	// successor is orphaned if that successor dies before the first
	// stabilisation round. Failure is fine — Stabilize deepens it later.
	if list, err := n.client.Successors(obs.SpanContext{}, succ.Addr); err == nil {
		n.mergeSuccessorList(succ, list)
	}
	return nil
}

// closestPreceding returns the ring-closest known node strictly between
// self and id, consulting fingers and the successor list.
func (n *Node) closestPreceding(id ID) NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for i := Bits - 1; i >= 0; i-- {
		f := n.fingers[i]
		if !f.IsZero() && BetweenOpen(f.ID, n.self.ID, id) {
			return f
		}
	}
	for i := len(n.succs) - 1; i >= 0; i-- {
		s := n.succs[i]
		if !s.IsZero() && BetweenOpen(s.ID, n.self.ID, id) {
			return s
		}
	}
	return n.self
}

// HandleFindSuccessor implements the server side of lookups: if id falls
// between self and successor, the successor owns it; otherwise forward to
// the closest preceding finger — on the caller's trace, so multi-hop
// lookups stitch into one tree.
func (n *Node) HandleFindSuccessor(sc obs.SpanContext, id ID) (NodeRef, error) {
	n.mu.Lock()
	n.lookupHops++
	succ := n.succs[0]
	n.mu.Unlock()
	if n.obs != nil {
		n.obs.lookupHops.Inc()
	}
	if Between(id, n.self.ID, succ.ID) {
		return succ, nil
	}
	next := n.closestPreceding(id)
	if next.Addr == n.self.Addr {
		return succ, nil
	}
	ref, err := n.client.FindSuccessor(sc, next.Addr, id)
	if err != nil {
		// Routing hole during churn: fall back to the successor walk.
		return succ, nil
	}
	return ref, nil
}

// HandleSuccessors returns the successor list.
func (n *Node) HandleSuccessors() []NodeRef { return n.SuccessorList() }

// HandlePredecessor returns the predecessor.
func (n *Node) HandlePredecessor() (NodeRef, bool) { return n.PredecessorRef() }

// HandleNotify accepts a predecessor candidate (Chord's notify).
func (n *Node) HandleNotify(candidate NodeRef) {
	if candidate.IsZero() || candidate.Addr == n.self.Addr {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.hasPred || BetweenOpen(candidate.ID, n.pred.ID, n.self.ID) {
		n.pred = candidate
		n.hasPred = true
	}
}

// HandleStore merges records locally; when replicate is set it forwards
// unreplicated copies to the successor list, on the caller's trace.
func (n *Node) HandleStore(sc obs.SpanContext, recs []StoredRecord, replicate bool) {
	n.cfg.Storage.Put(recs)
	if !replicate {
		return
	}
	for _, s := range n.SuccessorList() {
		if s.Addr == n.self.Addr {
			continue
		}
		// Replica write failures are tolerated; stabilisation repairs.
		_ = n.client.Store(sc, s.Addr, recs, false)
	}
}

// HandleRetrieve reads the records stored under key.
func (n *Node) HandleRetrieve(key ID) []StoredRecord {
	return n.cfg.Storage.Get(key)
}

var _ handler = (*Node)(nil)

// Stabilize runs one round of Chord stabilisation: verify the successor,
// adopt a closer one if its predecessor sits between, refresh the
// successor list, and notify the successor of our existence.
func (n *Node) Stabilize() {
	if n.obs != nil {
		n.obs.stabilizations.Inc()
	}
	succ := n.Successor()
	if succ.Addr == n.self.Addr {
		// Bootstrap case: a node that is its own successor adopts its
		// predecessor (set by a joiner's notify) to close the ring.
		if pred, ok := n.PredecessorRef(); ok && pred.Addr != n.self.Addr {
			if n.client.Ping(obs.SpanContext{}, pred.Addr) == nil {
				n.adoptSuccessor(pred)
				succ = pred
			}
		}
		if succ.Addr == n.self.Addr {
			// Still alone with no predecessor: we fell out of the ring
			// (every successor died during churn). Re-enter through any
			// live finger instead of waiting for a notify that cannot
			// come — no other node's successor list names us anymore.
			succ = n.rejoinViaFinger()
		}
	} else {
		if pred, ok, err := n.client.Predecessor(obs.SpanContext{}, succ.Addr); err != nil {
			n.dropSuccessor(succ)
			succ = n.Successor()
		} else if ok && BetweenOpen(pred.ID, n.self.ID, succ.ID) && pred.Addr != n.self.Addr {
			if n.client.Ping(obs.SpanContext{}, pred.Addr) == nil {
				n.adoptSuccessor(pred)
				succ = pred
			}
		}
	}
	// Refresh the successor list from the (possibly new) successor.
	if succ.Addr != n.self.Addr {
		if list, err := n.client.Successors(obs.SpanContext{}, succ.Addr); err == nil {
			n.mergeSuccessorList(succ, list)
			_ = n.client.Notify(obs.SpanContext{}, succ.Addr, n.self)
		} else {
			n.dropSuccessor(succ)
		}
	}
	n.checkPredecessor()
}

// rejoinViaFinger resolves our own ID through the first live finger and
// adopts the result as successor, returning it (or self when no finger
// helps). Fingers are the only pointers that survive total successor
// loss, so this is the last resort of an isolated node.
func (n *Node) rejoinViaFinger() NodeRef {
	n.mu.RLock()
	fingers := n.fingers
	n.mu.RUnlock()
	for _, f := range fingers {
		if f.IsZero() || f.Addr == n.self.Addr {
			continue
		}
		succ, err := n.client.FindSuccessor(obs.SpanContext{}, f.Addr, n.self.ID)
		if err != nil || succ.IsZero() || succ.Addr == n.self.Addr {
			continue
		}
		n.adoptSuccessor(succ)
		return succ
	}
	return n.self
}

func (n *Node) adoptSuccessor(s NodeRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.succs = append([]NodeRef{s}, n.succs...)
	n.trimSuccessorsLocked()
}

func (n *Node) dropSuccessor(dead NodeRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.forgetArcLocked(dead.Addr)
	kept := n.succs[:0]
	for _, s := range n.succs {
		if s.Addr != dead.Addr {
			kept = append(kept, s)
		}
	}
	n.succs = kept
	if len(n.succs) == 0 {
		n.succs = []NodeRef{n.self}
	}
}

func (n *Node) mergeSuccessorList(succ NodeRef, theirList []NodeRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	list := make([]NodeRef, 0, n.cfg.SuccessorListLen+1)
	list = append(list, succ)
	for _, s := range theirList {
		if s.Addr == n.self.Addr || s.Addr == succ.Addr {
			continue
		}
		list = append(list, s)
		if len(list) >= n.cfg.SuccessorListLen {
			break
		}
	}
	n.succs = list
	n.trimSuccessorsLocked()
}

func (n *Node) trimSuccessorsLocked() {
	seen := make(map[string]struct{}, len(n.succs))
	kept := n.succs[:0]
	for _, s := range n.succs {
		if _, dup := seen[s.Addr]; dup {
			continue
		}
		seen[s.Addr] = struct{}{}
		kept = append(kept, s)
		if len(kept) >= n.cfg.SuccessorListLen {
			break
		}
	}
	n.succs = kept
	if len(n.succs) == 0 {
		n.succs = []NodeRef{n.self}
	}
}

func (n *Node) checkPredecessor() {
	pred, ok := n.PredecessorRef()
	if !ok || pred.Addr == n.self.Addr {
		return
	}
	if n.client.Ping(obs.SpanContext{}, pred.Addr) != nil {
		n.mu.Lock()
		n.hasPred = false
		n.forgetArcLocked(pred.Addr)
		n.mu.Unlock()
	}
}

// FixFinger refreshes finger i by looking up its target.
func (n *Node) FixFinger(i int) {
	if i < 0 || i >= Bits {
		return
	}
	target := fingerStart(n.self.ID, i)
	ref, err := n.HandleFindSuccessor(obs.SpanContext{}, target)
	if err != nil {
		return
	}
	n.mu.Lock()
	n.fingers[i] = ref
	n.mu.Unlock()
}

// FixAllFingers refreshes every finger; tests and freshly joined nodes use
// it to converge quickly.
func (n *Node) FixAllFingers() {
	for i := 0; i < Bits; i++ {
		n.FixFinger(i)
	}
}

// Lookup resolves the node responsible for key.
func (n *Node) Lookup(sc obs.SpanContext, key ID) (NodeRef, error) {
	return n.HandleFindSuccessor(sc, key)
}

// Publish stores records under their keys at the responsible nodes with
// replication (§4.1 steps 1–2: publication and republication both land
// here). Records with distinct keys are routed independently.
func (n *Node) Publish(recs []StoredRecord) error {
	// Publish is its own trace root: republication and daemon publish
	// paths call it without a caller span, and the lookup + store fan-out
	// below all stitches under it.
	sp := obs.StartRoot(spanPublish)
	sc := sp.Context()
	byKey := make(map[ID][]StoredRecord)
	for _, r := range recs {
		byKey[r.Key] = append(byKey[r.Key], r)
	}
	var firstErr error
	for key, group := range byKey {
		root, err := n.Lookup(sc, key)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if root.Addr == n.self.Addr {
			n.HandleStore(sc, group, true)
			continue
		}
		if err := n.client.Store(sc, root.Addr, group, true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	sp.EndErr(firstErr)
	return firstErr
}

// Retrieve fetches the records stored under key (§4.1 step 3) from the
// key's root, and from the root's replicas when the root has none. A
// key in the node's own arc is read from its own storage, and a key in
// the remembered arc of a member met as a root goes straight to that
// member; if that source fails or holds nothing, its arc is forgotten
// and the key takes the full path: a lookup, the root, then the
// replicas. A root found by lookup that answers has its arc read once,
// so later keys in it skip the lookup (DESIGN.md §7, §11).
func (n *Node) Retrieve(sc obs.SpanContext, key ID) (out []StoredRecord, err error) {
	tsp := obs.StartSpan(sc, spanRetrieve)
	walked := 1 // the root is always consulted
	known, via := n.knownRoot(key)
	defer func() {
		if n.obs != nil {
			n.obs.walkDepth.Observe(float64(walked))
			n.obs.root(via).Inc()
		}
		tsp.Attr(attrWalked, int64(walked))
		tsp.AttrStr(attrVia, via)
		tsp.EndErr(err)
	}()
	sc = tsp.Context()
	var recs []StoredRecord
	var rootErr error
	if via != viaLookup {
		if recs, rootErr = n.retrieveFrom(sc, known, key); rootErr == nil && len(recs) > 0 {
			return recs, nil
		}
		if via == viaMemo {
			n.forgetArc(known.Addr)
		}
		via = viaLookup
	}
	root, err := n.Lookup(sc, key)
	if err != nil {
		return nil, err
	}
	// When the lookup names the source just asked, its answer stands as
	// the root's: asking again would cost an RPC and change nothing.
	if known.IsZero() || root.Addr != known.Addr {
		recs, rootErr = n.retrieveFrom(sc, root, key)
		if rootErr == nil && len(recs) > 0 {
			if root.Addr != n.self.Addr {
				n.learnArc(sc, root, key)
			}
			return recs, nil
		}
	}
	// Root unreachable or empty-handed: an empty answer may just mean
	// the root rejoined after a crash and has not been repaired yet, so
	// ask its replicas before concluding the records do not exist.
	var list []NodeRef
	var lerr error
	if root.Addr != n.self.Addr {
		list, lerr = n.client.Successors(sc, root.Addr)
	}
	if root.Addr == n.self.Addr || lerr != nil {
		list = n.SuccessorList()
	}
	for _, s := range list {
		if s.Addr == root.Addr || s.Addr == n.self.Addr {
			continue
		}
		walked++
		if rrecs, rerr := n.client.Retrieve(sc, s.Addr, key); rerr == nil && len(rrecs) > 0 {
			return rrecs, nil
		}
	}
	if rootErr != nil {
		return nil, rootErr
	}
	return recs, nil
}

// retrieveFrom reads key at root: from the node's own storage when root
// is this node, with one retrieve RPC otherwise.
func (n *Node) retrieveFrom(sc obs.SpanContext, root NodeRef, key ID) ([]StoredRecord, error) {
	if root.Addr == n.self.Addr {
		return n.HandleRetrieve(key), nil
	}
	return n.client.Retrieve(sc, root.Addr, key)
}

// Leave gracefully removes the node from the ring: its stored records are
// handed to its successor (which replicates them onward), and its
// predecessor is pointed past it. The caller must stop routing to the
// node afterwards (close its transport / unregister it).
func (n *Node) Leave() error {
	succ := n.Successor()
	if succ.Addr == n.self.Addr {
		return nil // last node; nothing to hand off
	}
	records := n.cfg.Storage.All()
	if len(records) > 0 {
		if err := n.client.Store(obs.SpanContext{}, succ.Addr, records, true); err != nil {
			return fmt.Errorf("dht: hand off %d records to %s: %w", len(records), succ.Addr, err)
		}
	}
	// Tell the successor who its new predecessor should be, so the ring
	// closes without waiting for failure detection.
	if pred, ok := n.PredecessorRef(); ok && pred.Addr != n.self.Addr {
		_ = n.client.Notify(obs.SpanContext{}, succ.Addr, pred)
	}
	return nil
}
