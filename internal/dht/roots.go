package dht

import (
	"sort"

	"mdrep/internal/obs"
)

// arc is the key range (lo, member.ID] a ring member answered for when
// this node last read it: lo is the member's predecessor.
type arc struct {
	lo     ID
	member NodeRef
}

// knownRoot returns the root a Retrieve of key can go to without a
// lookup, and how it is known: viaOwn when key lies in the node's own
// arc (pred, self], viaMemo when it lies in the remembered arc of a
// member met as a root, viaLookup (and a zero ref) otherwise. Of the
// remembered arcs only the first member clockwise from key can hold it.
func (n *Node) knownRoot(key ID) (NodeRef, string) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.hasPred && Between(key, n.pred.ID, n.self.ID) {
		return n.self, viaOwn
	}
	if len(n.arcs) == 0 {
		return NodeRef{}, viaLookup
	}
	i := sort.Search(len(n.arcs), func(i int) bool { return n.arcs[i].member.ID >= key })
	if i == len(n.arcs) {
		i = 0 // wrap past the top of the ring
	}
	if a := n.arcs[i]; Between(key, a.lo, a.member.ID) {
		return a.member, viaMemo
	}
	return NodeRef{}, viaLookup
}

// learnArc reads root's arc with one Predecessor RPC and remembers it,
// replacing any arc root held before. A root without a predecessor, an
// unreachable one, or an arc that does not hold the key root was just
// found for (the ring is still settling) teaches nothing.
func (n *Node) learnArc(sc obs.SpanContext, root NodeRef, key ID) {
	pred, ok, err := n.client.Predecessor(sc, root.Addr)
	if err != nil || !ok || !Between(key, pred.ID, root.ID) {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rememberArcLocked(arc{lo: pred.ID, member: root})
}

// rememberArcLocked puts a in its sorted place, replacing any arc its
// member held before.
func (n *Node) rememberArcLocked(a arc) {
	n.forgetArcLocked(a.member.Addr)
	i := sort.Search(len(n.arcs), func(i int) bool { return n.arcs[i].member.ID >= a.member.ID })
	n.arcs = append(n.arcs, arc{})
	copy(n.arcs[i+1:], n.arcs[i:])
	n.arcs[i] = a
}

// forgetArc drops the arc remembered for the member at addr, if any.
func (n *Node) forgetArc(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.forgetArcLocked(addr)
}

func (n *Node) forgetArcLocked(addr string) {
	for i, a := range n.arcs {
		if a.member.Addr == addr {
			n.arcs = append(n.arcs[:i], n.arcs[i+1:]...)
			return
		}
	}
}

// refreshArc re-reads the i-th remembered arc (mod their number) with
// one Predecessor RPC, keeping it with the member's current predecessor
// or forgetting it when the member is unreachable or has none. The
// Maintainer calls it once per tick with a rising i, so every arc is
// re-read in turn, the way fingers are repaired.
func (n *Node) refreshArc(i int) {
	n.mu.RLock()
	if len(n.arcs) == 0 {
		n.mu.RUnlock()
		return
	}
	member := n.arcs[i%len(n.arcs)].member
	n.mu.RUnlock()
	pred, ok, err := n.client.Predecessor(obs.SpanContext{}, member.Addr)
	n.mu.Lock()
	defer n.mu.Unlock()
	if err != nil || !ok {
		n.forgetArcLocked(member.Addr)
		return
	}
	n.rememberArcLocked(arc{lo: pred.ID, member: member})
}
