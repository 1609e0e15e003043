package journal

import (
	"encoding/json"
	"sync"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/identity"
	"mdrep/internal/peer"
)

// Peer binds a peer.Peer's own-evidence event model to a Log, giving the
// decentralised CLI (cmd/mdrep-peer) durable votes, retention signals,
// downloads, ratings and blacklists across restarts. Peer events are
// JSON-encoded inside the checksummed record framing — the peer path is
// human-debuggable and low-rate; the engine path (engine.go) keeps the
// compact binary codec.
type Peer struct {
	mu  sync.Mutex
	p   *peer.Peer
	log *Log
}

// peerState adapts a peer.Peer to the journal State interface.
type peerState struct{ p *peer.Peer }

func (s *peerState) Apply(payload []byte) error {
	var ev peer.Event
	if err := json.Unmarshal(payload, &ev); err != nil {
		return err
	}
	if ev.Kind == peer.EventRateUser && ev.Target == s.p.ID() {
		// Journals written before RateUser refused self-ratings may
		// hold one. Replay drops it, as RestoreState does.
		return nil
	}
	return s.p.ApplyEvent(ev)
}

func (s *peerState) Snapshot() ([]byte, error) {
	return json.Marshal(s.p.ExportState())
}

func (s *peerState) Restore(snapshot []byte) error {
	var st peer.State
	if err := json.Unmarshal(snapshot, &st); err != nil {
		return err
	}
	return s.p.RestoreState(&st)
}

// OpenPeer recovers p's durable state from dataDir and returns a wrapper
// whose mutators journal before returning. p must be freshly constructed;
// recovery replays its history onto it.
func OpenPeer(dataDir string, p *peer.Peer, cfg Config) (*Peer, RecoveryInfo, error) {
	log, info, err := Open(dataDir, cfg, &peerState{p: p})
	if err != nil {
		return nil, info, err
	}
	return &Peer{p: p, log: log}, info, nil
}

// Base returns the wrapped peer for reads and network operations
// (SyncPeer, TrustRow, SignedEvaluations, …). Mutating its evidence
// directly bypasses the journal; use the wrapper's mutators.
func (jp *Peer) Base() *peer.Peer { return jp.p }

func (jp *Peer) record(ev peer.Event) error {
	jp.mu.Lock()
	defer jp.mu.Unlock()
	if err := jp.p.ApplyEvent(ev); err != nil {
		return err
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if err := jp.log.Append(payload); err != nil {
		return err
	}
	if jp.log.SnapshotDue() {
		return jp.log.Snapshot()
	}
	return nil
}

// AdvanceTo durably moves the peer's virtual clock forward.
func (jp *Peer) AdvanceTo(now time.Duration) error {
	return jp.record(peer.Event{Kind: peer.EventAdvance, Time: now})
}

// Vote durably records an explicit evaluation at the peer's current time.
func (jp *Peer) Vote(f eval.FileID, value float64) error {
	return jp.record(peer.Event{Kind: peer.EventVote, File: f, Value: value, Time: jp.p.Now()})
}

// ObserveRetention durably records a retention-derived evaluation.
func (jp *Peer) ObserveRetention(f eval.FileID, value float64) error {
	return jp.record(peer.Event{Kind: peer.EventSetImplicit, File: f, Value: value, Time: jp.p.Now()})
}

// RecordDownload durably registers a completed download.
func (jp *Peer) RecordDownload(uploader identity.PeerID, f eval.FileID, size int64) error {
	return jp.record(peer.Event{Kind: peer.EventDownload, Target: uploader, File: f, Size: size})
}

// RateUser durably records a user rating.
func (jp *Peer) RateUser(target identity.PeerID, value float64) error {
	return jp.record(peer.Event{Kind: peer.EventRateUser, Target: target, Value: value})
}

// Blacklist durably bans target.
func (jp *Peer) Blacklist(target identity.PeerID) error {
	return jp.record(peer.Event{Kind: peer.EventBlacklist, Target: target})
}

// Sync flushes buffered appends to disk.
func (jp *Peer) Sync() error {
	jp.mu.Lock()
	defer jp.mu.Unlock()
	return jp.log.Sync()
}

// Close flushes the journal, takes a final snapshot and closes the log —
// the graceful-shutdown path of cmd/mdrep-peer.
func (jp *Peer) Close() error {
	jp.mu.Lock()
	defer jp.mu.Unlock()
	if err := jp.log.Snapshot(); err != nil {
		_ = jp.log.Close()
		return err
	}
	return jp.log.Close()
}
