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
// The trust row and the Eq. (9) verdict come from core's row kernels,
// with the peers this one knows numbered by ascending ID, so a peer
// computes its row of TM and its verdicts with the engine's bits.
//
// Each entry of an exchanged evaluation list carries the owner's
// signature over the entry and the owner's signature over the whole
// list, so a relay cannot forge either. A sync checks the list signature
// once; if it fails, every entry is checked by its own signature, and
// only the entries that fail are discarded.
package peer

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/eval"
	"mdrep/internal/fault"
	"mdrep/internal/identity"
	"mdrep/internal/incentive"
	"mdrep/internal/obs"
	"mdrep/internal/security"
	"mdrep/internal/sparse"
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
	downBy map[identity.PeerID][]core.Download
	rating map[identity.PeerID]float64
	// banned is the user's blacklist (§3.1.3): a banned peer's rating is
	// deleted and later ratings are refused, so its UT stays zero.
	banned map[identity.PeerID]struct{}
	// lists caches fetched evaluation lists per peer.
	lists map[identity.PeerID]map[eval.FileID]float64
	// flagged holds the peers the examiner caught forging (§4.2). They
	// are left out of every trust dimension. Like lists, flags are a
	// cache of what the network showed, and are not persisted.
	flagged  map[identity.PeerID]struct{}
	examiner *security.Examiner
	examIdx  map[identity.PeerID]int
	examSeq  int
	queue    *incentive.Queue

	// signed reuses the signatures SignedEvaluations served before. It
	// has its own lock, so serving does not hold mu while signing.
	signed signMemo
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
		downBy:  make(map[identity.PeerID][]core.Download),
		rating:  make(map[identity.PeerID]float64),
		banned:  make(map[identity.PeerID]struct{}),
		lists:   make(map[identity.PeerID]map[eval.FileID]float64),
		flagged: make(map[identity.PeerID]struct{}),
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
	return p.ApplyEvent(Event{Kind: EventDownload, Target: uploader, File: f, Size: size})
}

// RateUser records an explicit user rating. A rating of the peer itself
// is refused with a terminal error and changes nothing, as core refuses
// one; a blacklisted target's rating is dropped.
func (p *Peer) RateUser(target identity.PeerID, value float64) error {
	if target == p.ID() {
		return fault.Terminal(errors.New("peer: self-rating"))
	}
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

// Blacklist permanently zeroes the target's user trust (§3.1.3): its
// rating is deleted and later ratings are refused. File and download
// evidence about the target still count, as in core.
func (p *Peer) Blacklist(target identity.PeerID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.banned[target] = struct{}{}
	delete(p.rating, target)
}

// SignedEvaluations returns the peer's current evaluation list as signed
// EvaluationInfo records sorted by file — what it serves to other peers
// (and publishes to the DHT with its file index entries). Every record is
// stamped with the peer's clock at the time of the call and carries its
// own Signature. An entry whose file, evaluation and timestamp match the
// last one served for that file reuses that entry's signature instead of
// signing again; ed25519 is deterministic, so the bytes are the same
// either way. A list of two or more entries also carries the owner's
// list signature (eval.SignList) in every record's ListSignature, made
// again only when an entry was signed again or dropped. The returned
// records, signatures included, are the caller's to keep or alter; the
// records of one call share one copy of the list signature.
func (p *Peer) SignedEvaluations() ([]eval.Info, error) {
	p.mu.RLock()
	snap := p.store.Snapshot(p.now)
	now := p.now
	p.mu.RUnlock()
	return p.signed.sign(p.id, snap, now)
}

// SyncPeer fetches the target's evaluation list (§4.1 step 4), caches
// it, and feeds the examiner. It returns the number of verified entries.
// Entries that name another owner are relayed garbage and are dropped
// unchecked. Every other entry is authenticated on every sync, even if
// the same list was verified before: an unaltered list by one check of
// its list signature, and otherwise each entry by its own signature, so
// a forged entry is dropped alone (eval.VerifyAll). The verified entries
// are merged in fetch order, so the cached list is the same at any
// GOMAXPROCS.
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
	relayed := func(in eval.Info) bool { return in.OwnerID != target }
	if slices.ContainsFunc(infos, relayed) {
		infos = slices.DeleteFunc(slices.Clone(infos), relayed)
	}
	errs := eval.VerifyAll(p.dir, infos)
	list := make(map[eval.FileID]float64, len(infos))
	for i, in := range infos {
		if errs[i] != nil {
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
			p.flagged[target] = struct{}{}
			delete(p.lists, target)
			return 0, fault.Terminal(fmt.Errorf("peer: %s flagged as evaluation forger", target))
		}
	}
	p.lists[target] = list
	return len(list), nil
}

// fileTrust computes FT of one synced list against our own evaluations
// (Eq. 2). It sums |ours − theirs| in ascending file order, so the same
// records give the same bits on every call. shared is scratch space for
// the files both evaluated, returned for the next call to reuse.
func fileTrust(mine, list map[eval.FileID]float64, shared []eval.FileID) (float64, []eval.FileID) {
	shared = shared[:0]
	for f := range list {
		if _, ok := mine[f]; ok {
			shared = append(shared, f)
		}
	}
	if len(shared) == 0 {
		return 0, shared
	}
	slices.Sort(shared)
	sum := 0.0
	for _, f := range shared {
		sum += math.Abs(mine[f] - list[f])
	}
	ft := 1 - sum/float64(len(shared))
	if ft < 0 {
		return 0, shared
	}
	return ft, shared
}

// TrustRow returns the peer's one-step direct trust in every known peer:
// its row of TM (Eq. 7). It numbers the peers it knows by ascending ID,
// builds the raw FT (Eq. 2), VD (Eq. 4) and UT (Eq. 6) rows over them,
// and hands them to core's normaliser and Eq. (7) kernel, so the row has
// the bits the engine computes from the same evidence. Peers the
// examiner flagged are left out of every dimension.
func (p *Peer) TrustRow() map[identity.PeerID]float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()

	ids := make([]identity.PeerID, 0, len(p.lists)+len(p.downBy)+len(p.rating))
	for id := range p.lists {
		ids = append(ids, id)
	}
	for id := range p.downBy {
		ids = append(ids, id)
	}
	for id := range p.rating {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	ids = slices.DeleteFunc(slices.Compact(ids), func(id identity.PeerID) bool {
		_, bad := p.flagged[id]
		return bad
	})

	mine := p.store.Snapshot(p.now)
	floor := p.cfg.Reputation.Retention.Floor
	var raw [3]sparse.Row // FT, VD, UT
	for d := range raw {
		raw[d] = sparse.Row{Cols: make([]int32, 0, len(ids)), Vals: make([]float64, 0, len(ids))}
	}
	add := func(d, col int, v float64) {
		if v > 0 {
			raw[d].Cols = append(raw[d].Cols, int32(col))
			raw[d].Vals = append(raw[d].Vals, v)
		}
	}
	var shared []eval.FileID
	for col, id := range ids {
		if list, ok := p.lists[id]; ok {
			var ft float64
			ft, shared = fileTrust(mine, list, shared)
			add(0, col, ft)
		}
		add(1, col, core.DownloadVolume(p.downBy[id], p.store, p.now, floor))
		add(2, col, p.rating[id])
	}
	row := p.cfg.Reputation.TrustRow(raw[0], raw[1], raw[2])
	out := make(map[identity.PeerID]float64, len(row.Cols))
	for k, col := range row.Cols {
		out[ids[col]] = row.Vals[k]
	}
	return out
}

// JudgeFile computes R_f (Eq. 9) from DHT-retrieved evaluator records,
// verifying each record's signature first (§4.2 attack 1). A file's
// records come from different owners, so each is checked by its own
// signature. Records outside [0,1] are dropped without a signature
// check: one hostile record must not fail the judgement. The checks run
// in parallel (eval.VerifyAll) and the verified records are summed in
// input order, so R_f has the same bits at any GOMAXPROCS.
func (p *Peer) JudgeFile(records []eval.Info) (core.Judgement, error) {
	row := p.TrustRow()
	errs := eval.VerifyAll(p.dir, records)
	var ev core.FileEvidence
	for i, in := range records {
		if errs[i] == nil { // otherwise forged or outside [0,1]
			ev.Add(row[in.OwnerID], in.Evaluation)
		}
	}
	return p.cfg.Reputation.Judge(ev), nil
}

// JudgeFileFromCache computes R_f from the peer's locally cached
// evaluation lists instead of DHT records — the degraded mode used when
// the file index is unreachable (§4.1 step 5 fallback). The cached
// entries were verified, range and signature, when synced, and are
// summed in ascending owner order. Coverage is limited to peers whose
// lists this peer has fetched, so the verdict can be Unknown for a file
// the wider network has evaluated.
func (p *Peer) JudgeFileFromCache(f eval.FileID) core.Judgement {
	row := p.TrustRow() // before p.mu: TrustRow takes the same lock
	p.mu.RLock()
	defer p.mu.RUnlock()
	targets := make([]identity.PeerID, 0, len(p.lists))
	for target := range p.lists {
		targets = append(targets, target)
	}
	slices.Sort(targets)
	var ev core.FileEvidence
	for _, target := range targets {
		if e, ok := p.lists[target][f]; ok {
			ev.Add(row[target], e)
		}
	}
	return p.cfg.Reputation.Judge(ev)
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

// IsBlacklisted reports whether the peer has banned target, by its
// user's blacklist or by an examiner flag.
func (p *Peer) IsBlacklisted(target identity.PeerID) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, banned := p.banned[target]
	_, flagged := p.flagged[target]
	return banned || flagged
}
