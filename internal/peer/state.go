package peer

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/eval"
	"mdrep/internal/fault"
	"mdrep/internal/identity"
)

// A Peer's own evidence — its evaluation store, download ledger, user
// ratings and blacklist — is expressed as a serializable event model so
// internal/journal can make it durable. Synced evaluation lists, the
// examiner's history and its flags are deliberately *not* part of it:
// they are caches of other peers' claims, re-fetched and re-examined
// over the network, and nothing durable depends on them. So a peer
// recovers the same state from a crash as from a clean shutdown.

// EventKind discriminates peer events. Values are part of the on-disk
// journal format — append new kinds, never renumber.
type EventKind uint8

const (
	// EventAdvance moves the peer's virtual clock to Time.
	EventAdvance EventKind = 1
	// EventVote records an explicit evaluation: File, Value, Time.
	EventVote EventKind = 2
	// EventSetImplicit records a retention-derived evaluation: File,
	// Value, Time.
	EventSetImplicit EventKind = 3
	// EventDownload records a completed transfer: Target (uploader),
	// File, Size.
	EventDownload EventKind = 4
	// EventRateUser records a user rating: Target, Value.
	EventRateUser EventKind = 5
	// EventBlacklist permanently bans Target.
	EventBlacklist EventKind = 6
)

// Event is one serializable peer mutation.
type Event struct {
	Kind   EventKind       `json:"kind"`
	Target identity.PeerID `json:"target,omitempty"`
	File   eval.FileID     `json:"file,omitempty"`
	Value  float64         `json:"value,omitempty"`
	Size   int64           `json:"size,omitempty"`
	Time   time.Duration   `json:"time,omitempty"`
}

// Now returns the peer's current virtual time.
func (p *Peer) Now() time.Duration {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.now
}

// ApplyEvent applies one event. It is deterministic, so journal replay
// reproduces the peer's evidence exactly.
func (p *Peer) ApplyEvent(ev Event) error {
	switch ev.Kind {
	case EventAdvance:
		p.AdvanceTo(ev.Time)
		return nil
	case EventVote:
		p.mu.Lock()
		defer p.mu.Unlock()
		p.store.Vote(ev.File, ev.Value, ev.Time)
		return nil
	case EventSetImplicit:
		p.mu.Lock()
		defer p.mu.Unlock()
		p.store.SetImplicit(ev.File, ev.Value, ev.Time)
		return nil
	case EventDownload:
		if ev.Target == p.ID() {
			return fault.Terminal(fmt.Errorf("peer: self-download"))
		}
		if ev.Size < 0 {
			return fault.Terminal(fmt.Errorf("peer: negative size %d", ev.Size))
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		p.downBy[ev.Target] = append(p.downBy[ev.Target], core.Download{File: ev.File, Size: ev.Size})
		return nil
	case EventRateUser:
		return p.RateUser(ev.Target, ev.Value)
	case EventBlacklist:
		p.Blacklist(ev.Target)
		return nil
	default:
		return fault.Terminal(fmt.Errorf("peer: unknown event kind %d", ev.Kind))
	}
}

// State is the serializable own-evidence state of a Peer.
type State struct {
	Now     time.Duration                       `json:"now"`
	Records map[eval.FileID]eval.Record         `json:"records"`
	DownBy  map[identity.PeerID][]core.Download `json:"down_by"`
	Ratings map[identity.PeerID]float64         `json:"ratings"`
	// Banned is the user's blacklist; examiner flags are not state.
	Banned []identity.PeerID `json:"banned"`
}

// ExportState returns a deep copy of the peer's own evidence.
func (p *Peer) ExportState() *State {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := &State{
		Now:     p.now,
		Records: p.store.Export(),
		DownBy:  make(map[identity.PeerID][]core.Download, len(p.downBy)),
		Ratings: maps.Clone(p.rating),
		Banned:  make([]identity.PeerID, 0, len(p.banned)),
	}
	for target, entries := range p.downBy {
		st.DownBy[target] = slices.Clone(entries)
	}
	for target := range p.banned {
		st.Banned = append(st.Banned, target)
	}
	sort.Slice(st.Banned, func(i, j int) bool { return st.Banned[i] < st.Banned[j] })
	return st
}

// RestoreState replaces the peer's own evidence with st. Caches (synced
// lists, examiner history) are left empty — they refill from the network.
// A rating of the peer itself, which snapshots written before RateUser
// refused self-ratings may hold, is dropped.
func (p *Peer) RestoreState(st *State) error {
	if st == nil {
		return fault.Terminal(fmt.Errorf("peer: nil state"))
	}
	downBy := make(map[identity.PeerID][]core.Download, len(st.DownBy))
	for target, entries := range st.DownBy {
		downBy[target] = slices.Clone(entries)
	}
	rating := make(map[identity.PeerID]float64, len(st.Ratings))
	for target, v := range st.Ratings {
		if target == p.ID() {
			continue
		}
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fault.Terminal(fmt.Errorf("peer: restored rating %v outside [0,1]", v))
		}
		rating[target] = v
	}
	banned := make(map[identity.PeerID]struct{}, len(st.Banned))
	for _, target := range st.Banned {
		banned[target] = struct{}{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.now = st.Now
	p.store.Import(st.Records)
	p.downBy = downBy
	p.rating = rating
	p.banned = banned
	return nil
}
