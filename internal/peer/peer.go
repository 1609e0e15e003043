// Package peer implements the decentralised protocol of §4.1 steps 4–6
// from a single participant's point of view. Unlike internal/core — the
// omniscient engine used by the offline experiments — a Peer holds only
// its own state:
//
//   - its evaluation store (votes + retention signals),
//   - its download ledger (what it fetched, from whom),
//   - its user ratings (friends, blacklist),
//
// and computes everything else over the network:
//
//   - step 4: fetch another peer's signed evaluation list and compute the
//     file-based direct trust FT locally (Eq. 2);
//   - step 5: retrieve a file's EvaluationInfo records from the DHT and
//     compute R_f (Eq. 9) against its own direct-trust row;
//   - step 6: order upload requests and assign bandwidth quotas with the
//     incentive policy (§3.4);
//   - §4.2: proactively re-examine peers' evaluation lists and drop
//     flagged forgers from the trust row.
//
// Exchanged evaluation lists are signed per entry, so a relay cannot
// forge them; verification failures discard the entry.
package peer

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/eval"
	"mdrep/internal/fault"
	"mdrep/internal/identity"
	"mdrep/internal/incentive"
	"mdrep/internal/obs"
	"mdrep/internal/security"
)

// Causal-tracing span names and attribute keys (const table per the
// metriclabel analyzer's span-attribute contract).
const (
	spanSync  = "peer.sync"
	spanFetch = "peer.fetch_evaluations"
	spanServe = "peer.serve_evaluations"

	attrTarget   = "target"
	attrVerified = "verified"
)

// Directory resolves peer IDs to public keys (a PKI or self-certifying
// namespace).
type Directory = identity.Directory

// Network is how a peer reaches other peers' evaluation lists. The
// in-memory Exchange implements it; a TCP implementation can reuse the
// DHT transport's framing.
type Network interface {
	// FetchEvaluations returns the target's current signed evaluation
	// list, continuing the caller's trace across the exchange.
	FetchEvaluations(sc obs.SpanContext, target identity.PeerID) ([]eval.Info, error)
}

// Config parameterises a peer.
type Config struct {
	// Reputation carries the trust weights, blend, window and fake
	// threshold (Steps is ignored: a lone peer computes its one-step
	// row; deeper multi-trust requires exchanging rows, which §3.2 shows
	// is unnecessary once the one-step matrix is dense).
	Reputation core.Config
	// Policy is the service-differentiation policy for the upload queue.
	Policy incentive.Policy
	// ExaminerThreshold and ExaminerMinOverlap configure proactive
	// examination (§4.2); a zero threshold disables it.
	ExaminerThreshold  float64
	ExaminerMinOverlap int
}

// DefaultConfig returns the paper defaults plus a 0.3-drift examiner.
func DefaultConfig() Config {
	return Config{
		Reputation:         core.DefaultConfig(),
		Policy:             incentive.DefaultPolicy(),
		ExaminerThreshold:  0.3,
		ExaminerMinOverlap: 3,
	}
}

// Peer is one protocol participant.
type Peer struct {
	cfg Config
	id  *identity.Identity
	dir *Directory
	net Network

	// mu is a reader/writer lock: evidence mutations and cache updates
	// take the write lock, while the serving paths (TrustRow, JudgeFile,
	// SignedEvaluations, state export) share the read lock, so concurrent
	// requests do not serialise behind each other.
	mu     sync.RWMutex
	store  *eval.Store
	now    time.Duration
	downBy map[identity.PeerID][]downloadEntry
	rating map[identity.PeerID]float64
	banned map[identity.PeerID]struct{}
	// lists caches fetched evaluation lists per peer.
	lists    map[identity.PeerID]map[eval.FileID]float64
	examiner *security.Examiner
	examIdx  map[identity.PeerID]int
	examSeq  int
	queue    *incentive.Queue
}

type downloadEntry struct {
	file eval.FileID
	size int64
}

// New builds a peer with the given identity, PKI directory and network.
func New(id *identity.Identity, dir *Directory, net Network, cfg Config) (*Peer, error) {
	if id == nil || dir == nil || net == nil {
		return nil, fault.Terminal(errors.New("peer: nil identity, directory or network"))
	}
	if err := cfg.Reputation.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	store, err := eval.NewStore(cfg.Reputation.Blend, cfg.Reputation.Window)
	if err != nil {
		return nil, err
	}
	queue, err := incentive.NewQueue(cfg.Policy)
	if err != nil {
		return nil, err
	}
	p := &Peer{
		cfg:     cfg,
		id:      id,
		dir:     dir,
		net:     net,
		store:   store,
		downBy:  make(map[identity.PeerID][]downloadEntry),
		rating:  make(map[identity.PeerID]float64),
		banned:  make(map[identity.PeerID]struct{}),
		lists:   make(map[identity.PeerID]map[eval.FileID]float64),
		examIdx: make(map[identity.PeerID]int),
		queue:   queue,
	}
	if cfg.ExaminerThreshold > 0 {
		minOverlap := cfg.ExaminerMinOverlap
		if minOverlap < 1 {
			minOverlap = 1
		}
		ex, err := security.NewExaminer(cfg.ExaminerThreshold, minOverlap)
		if err != nil {
			return nil, err
		}
		p.examiner = ex
	}
	return p, nil
}

// ID returns the peer's identifier.
func (p *Peer) ID() identity.PeerID { return p.id.ID() }

// AdvanceTo moves the peer's virtual clock forward.
func (p *Peer) AdvanceTo(now time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if now > p.now {
		p.now = now
	}
}

// Vote records the peer's own explicit evaluation of f.
func (p *Peer) Vote(f eval.FileID, value float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.store.Vote(f, value, p.now)
}

// ObserveRetention records the peer's own implicit evaluation of f.
func (p *Peer) ObserveRetention(f eval.FileID, retention time.Duration, deleted bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.store.SetImplicit(f, p.cfg.Reputation.Retention.Implicit(retention, deleted), p.now)
}

// RecordDownload registers a completed download from uploader.
func (p *Peer) RecordDownload(uploader identity.PeerID, f eval.FileID, size int64) error {
	if uploader == p.ID() {
		return fault.Terminal(errors.New("peer: self-download"))
	}
	if size < 0 {
		return fault.Terminal(fmt.Errorf("peer: negative size %d", size))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.downBy[uploader] = append(p.downBy[uploader], downloadEntry{file: f, size: size})
	return nil
}

// RateUser records an explicit user rating; Blacklist bans permanently.
func (p *Peer) RateUser(target identity.PeerID, value float64) error {
	if value < 0 || value > 1 {
		return fault.Terminal(fmt.Errorf("peer: rating %v outside [0,1]", value))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, bad := p.banned[target]; bad {
		return nil
	}
	p.rating[target] = value
	return nil
}

// Blacklist permanently zeroes the target's user trust.
func (p *Peer) Blacklist(target identity.PeerID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.banned[target] = struct{}{}
	delete(p.rating, target)
	delete(p.lists, target)
}

// SignedEvaluations returns the peer's current evaluation list as signed
// EvaluationInfo records — what it serves to other peers (and publishes
// to the DHT with its file index entries).
func (p *Peer) SignedEvaluations() ([]eval.Info, error) {
	p.mu.RLock()
	snap := p.store.Snapshot(p.now)
	now := p.now
	p.mu.RUnlock()
	out := make([]eval.Info, 0, len(snap))
	for f, v := range snap {
		info := eval.Info{FileID: f, OwnerID: p.ID(), Evaluation: v, Timestamp: now}
		if err := info.Sign(p.id); err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FileID < out[j].FileID })
	return out, nil
}

// SyncPeer fetches the target's evaluation list (§4.1 step 4), verifies
// each entry's signature, caches it, and feeds the examiner. It returns
// the number of verified entries.
func (p *Peer) SyncPeer(target identity.PeerID) (n int, err error) {
	if target == p.ID() {
		return 0, fault.Terminal(errors.New("peer: cannot sync with self"))
	}
	// One sync is one trace: fetch, verification, examination.
	sp := obs.StartRoot(spanSync)
	sp.AttrStr(attrTarget, string(target))
	defer func() {
		sp.Attr(attrVerified, int64(n))
		sp.EndErr(err)
	}()
	infos, err := p.net.FetchEvaluations(sp.Context(), target)
	if err != nil {
		return 0, fmt.Errorf("peer: fetch %s: %w", target, err)
	}
	list := make(map[eval.FileID]float64, len(infos))
	for _, in := range infos {
		if in.OwnerID != target {
			continue // relayed garbage
		}
		if err := in.Verify(p.dir); err != nil {
			continue // forged entry
		}
		list[in.FileID] = in.Evaluation
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.examiner != nil {
		idx, ok := p.examIdx[target]
		if !ok {
			idx = p.examSeq
			p.examSeq++
			p.examIdx[target] = idx
		}
		if v := p.examiner.Examine(idx, list); v.Flagged {
			p.banned[target] = struct{}{}
			delete(p.rating, target)
			delete(p.lists, target)
			return 0, fault.Terminal(fmt.Errorf("peer: %s flagged as evaluation forger", target))
		}
	}
	p.lists[target] = list
	return len(list), nil
}

// fileTrust computes FT of one synced list against our own evaluations
// (Eq. 2). It sums |ours − theirs| in ascending file order, so the same
// records give the same bits on every call.
func fileTrust(mine, list map[eval.FileID]float64) float64 {
	shared := make([]eval.FileID, 0, len(list))
	for f := range list {
		if _, ok := mine[f]; ok {
			shared = append(shared, f)
		}
	}
	if len(shared) == 0 {
		return 0
	}
	slices.Sort(shared)
	sum := 0.0
	for _, f := range shared {
		sum += math.Abs(mine[f] - list[f])
	}
	ft := 1 - sum/float64(len(shared))
	if ft < 0 {
		return 0
	}
	return ft
}

// sumInKeyOrder adds m's values in ascending key order, so a dimension's
// total, and every trust value normalised by it, is bit-reproducible.
func sumInKeyOrder(m map[identity.PeerID]float64) float64 {
	keys := make([]identity.PeerID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	total := 0.0
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// TrustRow returns the peer's one-step direct trust in every known peer:
// the per-peer equivalent of row i of TM (Eq. 7), built from its own
// evidence and the synced evaluation lists, normalised per dimension.
// Blacklisted and flagged peers are excluded.
func (p *Peer) TrustRow() map[identity.PeerID]float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()

	mine := p.store.Snapshot(p.now)
	ft := make(map[identity.PeerID]float64, len(p.lists))
	for target, list := range p.lists {
		if _, bad := p.banned[target]; bad {
			continue
		}
		if v := fileTrust(mine, list); v > 0 {
			ft[target] = v
		}
	}
	vd := make(map[identity.PeerID]float64, len(p.downBy))
	floor := p.cfg.Reputation.Retention.Floor
	for target, entries := range p.downBy {
		if _, bad := p.banned[target]; bad {
			continue
		}
		total := 0.0
		for _, d := range entries {
			ev, ok := p.store.Get(d.file, p.now)
			if !ok {
				ev = floor
			}
			total += ev * float64(d.size)
		}
		if total > 0 {
			vd[target] = total
		}
	}
	ut := make(map[identity.PeerID]float64, len(p.rating))
	for target, v := range p.rating {
		if v > 0 {
			ut[target] = v
		}
	}

	row := make(map[identity.PeerID]float64)
	add := func(m map[identity.PeerID]float64, weight float64) {
		total := sumInKeyOrder(m)
		if total <= 0 || weight <= 0 {
			return
		}
		for target, v := range m {
			row[target] += weight * v / total
		}
	}
	add(ft, p.cfg.Reputation.Alpha)
	add(vd, p.cfg.Reputation.Beta)
	add(ut, p.cfg.Reputation.Gamma)
	return row
}

// JudgeFile computes R_f (Eq. 9) from DHT-retrieved evaluator records,
// verifying each record's signature first (§4.2 attack 1).
func (p *Peer) JudgeFile(records []eval.Info) (core.Judgement, error) {
	row := p.TrustRow()
	var num, den float64
	for _, in := range records {
		if in.Evaluation < 0 || in.Evaluation > 1 {
			continue
		}
		if err := in.Verify(p.dir); err != nil {
			continue
		}
		r := row[in.OwnerID]
		if r <= 0 {
			continue
		}
		num += r * in.Evaluation
		den += r
	}
	if den <= 0 {
		return core.Judgement{}, nil
	}
	rf := num / den
	return core.Judgement{
		Reputation: rf,
		Known:      true,
		Fake:       rf < p.cfg.Reputation.FakeThreshold,
	}, nil
}

// JudgeFileFromCache computes R_f from the peer's locally cached
// evaluation lists instead of DHT records — the degraded mode used when
// the file index is unreachable (§4.1 step 5 fallback). The cached
// entries were signature-verified when synced. Coverage is limited to
// peers whose lists this peer has fetched, so the verdict can be
// Unknown for a file the wider network has evaluated.
func (p *Peer) JudgeFileFromCache(f eval.FileID) core.Judgement {
	row := p.TrustRow() // before p.mu: TrustRow takes the same lock
	p.mu.RLock()
	targets := make([]identity.PeerID, 0, len(p.lists))
	for target := range p.lists {
		targets = append(targets, target)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	var num, den float64
	for _, target := range targets {
		e, ok := p.lists[target][f]
		if !ok || e < 0 || e > 1 {
			continue
		}
		r := row[target]
		if r <= 0 {
			continue
		}
		num += r * e
		den += r
	}
	p.mu.RUnlock()
	if den <= 0 {
		return core.Judgement{}
	}
	rf := num / den
	return core.Judgement{
		Reputation: rf,
		Known:      true,
		Fake:       rf < p.cfg.Reputation.FakeThreshold,
	}
}

// EnqueueUpload queues an inbound upload request under the incentive
// policy, using the peer's current trust in the requester (§4.1 step 6).
func (p *Peer) EnqueueUpload(requester identity.PeerID, file string, size int64, arrival time.Duration) error {
	row := p.TrustRow()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queue.Push(incentive.Request{
		Requester:  0, // integer slot unused in the decentralised path
		File:       file,
		Size:       size,
		Arrival:    arrival,
		Reputation: row[requester],
	})
}

// NextUpload dequeues the highest-priority upload request.
func (p *Peer) NextUpload() (incentive.Request, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queue.Pop()
}

// PendingUploads returns the queue depth.
func (p *Peer) PendingUploads() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.queue.Len()
}

// IsBlacklisted reports whether the peer has banned target (explicitly or
// via the examiner).
func (p *Peer) IsBlacklisted(target identity.PeerID) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, bad := p.banned[target]
	return bad
}
