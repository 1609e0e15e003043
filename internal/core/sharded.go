package core

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/sparse"
)

// Sharded is the concurrency facade over the trust core, and the only
// one: every caller that shares reputation state across goroutines
// (mdrep.System, the journal, the simulators, the peer daemon) drives
// it. It partitions the peer population across K shards by consistent
// hash on the peer index, each shard owning its peers' evidence
// (stores, download ledgers, user ratings, blacklists), its row-range
// of the FM/DM/UM row store, and its own dirty-row trackers. K = 1 is
// the default; a larger K lets writers for different shards proceed in
// parallel, and rebuilds recompute each shard's dirty rows in parallel.
//
// The row store keeps each trust dimension as frozen, normalised rows,
// one per peer, written only by the row's owner shard. A rebuild
// recomputes the rows its dirty trackers name and patches TM in the
// rows dirty in some dimension, copying every other row from the
// previous TM (Eq. 7 is row-local). The per-row float sequence is the
// bare Engine's from-scratch build, so TM is byte-identical to
// Engine.BuildTM for any K and any GOMAXPROCS.
//
// Shardability rests on an ownership invariant of the event model:
// every evidence mutation of ApplyEvent touches only the acting peer's
// own state (stores[I], downloads[I], userTrust[I], blacklist[I]). The
// only cross-peer structures are the stripe-locked evaluator index
// (commutative set union) and the dirty trackers (commutative set
// union, routed to each row's owner shard). Events with distinct owners
// therefore commute, so applying a batch shard-by-shard instead of in
// submission order reaches the identical state — the shard-count
// invariance property sharded_test.go proves bit-for-bit.
//
// Lock ordering (enforced by the locksafe analyzer):
//
//  1. rebuildMu — serialises stop-the-world rebuilds.
//  2. shard data locks (shards[i].mu) — always acquired in ascending
//     shard index order when more than one is held.
//  3. evaluator-index stripe locks — acquired under a data lock, never
//     the other way around.
//  4. shard dirty locks (shards[i].dirtyMu) — leaves: nothing is
//     acquired while one is held, so marks may be routed to any shard
//     from under any data or stripe lock.
//
// Read paths (Reputations, JudgeFile, BuildRM) synchronise only on the
// TM cache: a hit returns the immutable frozen CSR and the multi-trust
// walk runs without any lock.
type Sharded struct {
	eng *Engine // shared evidence container + row math; never used directly by callers
	k   int
	// shardOf maps peer → owner shard (consistent hash, fixed at
	// construction); owned lists each shard's peers ascending.
	shardOf []uint8
	owned   [][]int
	shards  []shard

	// version counts evidence mutations; the TM cache is valid only for
	// the version it was built at. Bumped while holding the owner
	// shard's data lock, so under all data locks it is quiescent.
	version atomic.Uint64
	epoch   atomic.Uint64
	tmCache atomic.Pointer[shardedTM]

	// Build state below is guarded by rebuildMu (writers) and published
	// to readers only through tmCache. dims is the row store: row i of
	// each dimension is written only by its owner shard's rebuild worker.
	rebuildMu  sync.Mutex
	dims       [3][]sparse.Row
	tm         *sparse.CSR
	lastNow    time.Duration
	lastNowSet bool
	// pairs holds the FM pair scratch of each rebuild worker, n wide:
	// one slot per worker of the last rebuild, each allocated at its
	// worker's first use and kept.
	pairs []*pairScratch

	obs  *EngineObs // builds, TM patches, RM, walks
	sobs *ShardedObs
}

// shard is one partition's locks and dirty-row trackers. The zero-ish
// state set up by NewSharded has every dimension all-dirty.
type shard struct {
	// mu guards the owned peers' evidence in the shared engine.
	mu sync.Mutex
	// dirtyMu guards the trackers below; it is a leaf lock.
	dirtyMu sync.Mutex
	dirty   [3]map[int]struct{}
	all     [3]bool
}

// shardedTM is the lock-free TM cache entry.
type shardedTM struct {
	tm      *sparse.CSR
	now     time.Duration
	version uint64
}

// MaxShards bounds K; shard indices are stored as uint8.
const MaxShards = 256

// ShardIndex is the consistent-hash router: peer p's owner among k
// shards. It is a pure function of (p, k) — the same peer lands on the
// same shard in every process, which the per-shard journal layout
// (journal.OpenSharded) depends on. The hash is splitmix64's finalizer,
// so consecutive peer indices scatter instead of striping.
func ShardIndex(p, k int) int {
	x := uint64(p) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(k))
}

// NewSharded builds a sharded engine for n peers across k shards.
// k = 1 is a single shard, the default of every caller; it and every
// larger k are byte-identical to the bare Engine on every output — the
// shard-count invariance property test.
func NewSharded(n, k int, cfg Config) (*Sharded, error) {
	if k < 1 || k > MaxShards {
		return nil, fmt.Errorf("core: shard count %d outside [1, %d]", k, MaxShards)
	}
	eng, err := NewEngine(n, cfg)
	if err != nil {
		return nil, err
	}
	s := &Sharded{
		eng:     eng,
		k:       k,
		shardOf: make([]uint8, n),
		owned:   make([][]int, k),
		shards:  make([]shard, k),
	}
	for p := 0; p < n; p++ {
		si := ShardIndex(p, k)
		s.shardOf[p] = uint8(si)
		s.owned[si] = append(s.owned[si], p)
	}
	for si := range s.shards {
		sh := &s.shards[si]
		for d := 0; d < 3; d++ {
			sh.dirty[d] = make(map[int]struct{})
			sh.all[d] = true
		}
	}
	for d := range s.dims {
		s.dims[d] = make([]sparse.Row, n)
	}
	return s, nil
}

// N returns the population size.
func (s *Sharded) N() int { return s.eng.N() }

// K returns the shard count.
func (s *Sharded) K() int { return s.k }

// Config returns the engine configuration.
func (s *Sharded) Config() Config { return s.eng.Config() }

// Epoch counts the rebuilds that recomputed some dimension row; callers
// use it to notice when cached per-peer reputation rows are stale.
func (s *Sharded) Epoch() uint64 { return s.epoch.Load() }

// ShardOf returns peer p's owner shard.
func (s *Sharded) ShardOf(p int) int { return int(s.shardOf[p]) }

// SetObserver attaches the engine metrics observer: per-dimension build
// spans and dirty rows (one build sample per shard worker that
// recomputes a dimension), TM patches, RM builds and reputation walks.
// Per-shard ingest and rebuild metrics attach via SetShardObserver.
// Attach both before the engine is shared.
func (s *Sharded) SetObserver(o *EngineObs) { s.obs = o }

// SetShardObserver attaches the per-shard metrics observer.
func (s *Sharded) SetShardObserver(o *ShardedObs) { s.sobs = o }

// markShard routes a dirty-row mark to the row's owner shard. It may be
// called from under any data or index stripe lock: dirtyMu is a leaf.
func (s *Sharded) markShard(dim int, row int) {
	sh := &s.shards[s.shardOf[row]]
	sh.dirtyMu.Lock()
	if !sh.all[dim] {
		sh.dirty[dim][row] = struct{}{}
	}
	sh.dirtyMu.Unlock()
}

// lockAll acquires every shard data lock in ascending index order — the
// stop-the-world prefix of rebuilds, global compaction and state export.
func (s *Sharded) lockAll() {
	for si := range s.shards {
		s.shards[si].mu.Lock()
	}
}

func (s *Sharded) unlockAll() {
	for si := range s.shards {
		s.shards[si].mu.Unlock()
	}
}

// workers returns how many goroutines parallelShards runs on:
// min(K, GOMAXPROCS), since no more can run at once.
func (s *Sharded) workers() int { return min(s.k, runtime.GOMAXPROCS(0)) }

// parallelShards runs fn(w, si) for every shard si on workers
// transient goroutines, which take the shards in turn, and waits. w in
// [0, workers) names the goroutine that makes the call, so per-worker
// scratch needs no lock. Workers are not pooled: nothing outlives the
// call, which keeps the facade invisible to goroutine-leak checks and
// lets rebuild parallelism follow GOMAXPROCS.
func (s *Sharded) parallelShards(workers int, fn func(w, si int)) {
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for si := int(next.Add(1)) - 1; si < s.k; si = int(next.Add(1)) - 1 {
				fn(w, si)
			}
		}(w)
	}
	wg.Wait()
}

// --- mutations ---------------------------------------------------------------

// ApplyEvent validates and applies one event under its owner shard's
// lock. EventCompact touches every shard's evidence and runs
// stop-the-world.
func (s *Sharded) ApplyEvent(ev Event) error {
	if err := ValidateEvent(s.eng.n, ev); err != nil {
		return err
	}
	if ev.Kind == EventCompact {
		s.lockAll()
		s.eng.compactEvidence(ev.Time, nil, s.markShard)
		s.version.Add(1)
		s.unlockAll()
		return nil
	}
	sh := &s.shards[s.shardOf[ev.I]]
	sh.mu.Lock()
	err := s.eng.applyTo(ev, s.markShard)
	s.version.Add(1)
	sh.mu.Unlock()
	return err
}

// ApplyBatch is the group-commit ingest path for bulk sources (the
// massim mirror's per-epoch batches, the journal's durable batches).
//
// Contract: all-or-report. Every event is prevalidated with
// ValidateEvent before any is applied; on failure ApplyBatch returns a
// *BatchError naming the offending index and NO event of the batch is
// applied. A nil return means the whole batch applied.
//
// The batch is partitioned by owner shard, and each shard's sub-batch
// applies in submission order under that shard's lock, all shards in
// parallel. Because events with distinct owners commute (see type
// comment), the result is identical to sequential application. Batches
// containing EventCompact fall back to sequential ApplyEvent calls:
// compaction is a global barrier.
func (s *Sharded) ApplyBatch(evs []Event) error {
	n := s.eng.n
	hasCompact := false
	for k := range evs {
		if err := ValidateEvent(n, evs[k]); err != nil {
			return &BatchError{Index: k, Err: err}
		}
		if evs[k].Kind == EventCompact {
			hasCompact = true
		}
	}
	if s.sobs != nil {
		s.sobs.batches.Inc()
	}
	if hasCompact {
		for k := range evs {
			if err := s.ApplyEvent(evs[k]); err != nil {
				panic(fmt.Sprintf("core: prevalidated batch event %d failed: %v", k, err))
			}
		}
		return nil
	}
	parts := make([][]Event, s.k)
	for _, ev := range evs {
		si := s.shardOf[ev.I]
		parts[si] = append(parts[si], ev)
	}
	var wg sync.WaitGroup
	for si := range parts {
		if len(parts[si]) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sh := &s.shards[si]
			sh.mu.Lock()
			for _, ev := range parts[si] {
				if err := s.eng.applyTo(ev, s.markShard); err != nil {
					panic(fmt.Sprintf("core: prevalidated event failed on shard %d: %v", si, err))
				}
			}
			s.version.Add(1)
			sh.mu.Unlock()
			if s.sobs != nil {
				s.sobs.events[si].Add(uint64(len(parts[si])))
			}
		}(si)
	}
	wg.Wait()
	return nil
}

// ApplyShard applies one event that must belong to shard si — the
// journal replay path, where each shard's log replays independently. An
// EventCompact in a shard log compacts only that shard's peers; the
// union over all shard logs reproduces the global compaction (see
// Engine.compactEvidence).
func (s *Sharded) ApplyShard(si int, ev Event) error {
	if si < 0 || si >= s.k {
		return fmt.Errorf("core: shard %d outside [0, %d)", si, s.k)
	}
	if err := ValidateEvent(s.eng.n, ev); err != nil {
		return err
	}
	sh := &s.shards[si]
	if ev.Kind == EventCompact {
		sh.mu.Lock()
		s.eng.compactEvidence(ev.Time, s.ownsFunc(si), s.markShard)
		s.version.Add(1)
		sh.mu.Unlock()
		return nil
	}
	if int(s.shardOf[ev.I]) != si {
		return fmt.Errorf("core: event for peer %d (shard %d) replayed into shard %d", ev.I, s.shardOf[ev.I], si)
	}
	sh.mu.Lock()
	err := s.eng.applyTo(ev, s.markShard)
	s.version.Add(1)
	sh.mu.Unlock()
	return err
}

func (s *Sharded) ownsFunc(si int) func(p int) bool {
	return func(p int) bool { return int(s.shardOf[p]) == si }
}

// SetImplicit mirrors Engine.SetImplicit.
func (s *Sharded) SetImplicit(p int, f eval.FileID, value float64, now time.Duration) error {
	return s.ApplyEvent(Event{Kind: EventSetImplicit, I: p, File: f, Value: value, Time: now})
}

// ObserveRetention mirrors Engine.ObserveRetention.
func (s *Sharded) ObserveRetention(p int, f eval.FileID, retention time.Duration, deleted bool, now time.Duration) error {
	return s.SetImplicit(p, f, s.Config().Retention.Implicit(retention, deleted), now)
}

// Vote mirrors Engine.Vote.
func (s *Sharded) Vote(p int, f eval.FileID, value float64, now time.Duration) error {
	return s.ApplyEvent(Event{Kind: EventVote, I: p, File: f, Value: value, Time: now})
}

// RecordDownload mirrors Engine.RecordDownload.
func (s *Sharded) RecordDownload(downloader, uploader int, f eval.FileID, size int64, now time.Duration) error {
	return s.ApplyEvent(Event{Kind: EventDownload, I: downloader, J: uploader, File: f, Size: size, Time: now})
}

// RateUser mirrors Engine.RateUser.
func (s *Sharded) RateUser(i, j int, value float64) error {
	return s.ApplyEvent(Event{Kind: EventRateUser, I: i, J: j, Value: value})
}

// AddFriend mirrors Engine.AddFriend.
func (s *Sharded) AddFriend(i, j int) error {
	return s.RateUser(i, j, s.Config().FriendTrust)
}

// Blacklist mirrors Engine.Blacklist.
func (s *Sharded) Blacklist(i, j int) error {
	return s.ApplyEvent(Event{Kind: EventBlacklist, I: i, J: j})
}

// Compact mirrors Engine.Compact (stop-the-world, see ApplyEvent).
func (s *Sharded) Compact(now time.Duration) {
	_ = s.ApplyEvent(Event{Kind: EventCompact, Time: now})
}

// --- rebuild -----------------------------------------------------------------

// cachedTM returns the frozen TM if it is current: built at the present
// mutation version, and at the same virtual time unless nothing can
// expire (Window == 0 makes the matrices time-independent).
func (s *Sharded) cachedTM(now time.Duration) (*sparse.CSR, bool) {
	c := s.tmCache.Load()
	if c == nil || c.version != s.version.Load() {
		return nil, false
	}
	if c.now != now && s.eng.cfg.Window > 0 {
		return nil, false
	}
	return c.tm, true
}

// TM returns the frozen trust matrix at now, rebuilding per-shard in
// parallel on a cache miss.
func (s *Sharded) TM(now time.Duration) (*sparse.CSR, error) {
	if tm, ok := s.cachedTM(now); ok {
		return tm, nil
	}
	return s.rebuild(now)
}

// rebuild is the stop-the-world build: under rebuildMu and every shard
// data lock (ascending), it reconciles virtual time, drains each
// shard's dirty trackers, recomputes those rows of each dimension per
// shard in parallel into the row store, and patches TM in the rows some
// dimension recomputed. FM rows read each file's kept live-evaluator
// list and derive only the stale ones. The first build, a build at an
// earlier time and a build after RestoreShard mark every row dirty and
// drop every list, which makes them full builds through the same code.
// Each row's float sequence is that of Engine.BuildTM, so the result is
// byte-identical for any K and any GOMAXPROCS.
func (s *Sharded) rebuild(now time.Duration) (*sparse.CSR, error) {
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	if tm, ok := s.cachedTM(now); ok {
		return tm, nil
	}
	lockSp := s.sobs.spanLockWait()
	s.lockAll()
	lockSp.End()
	defer s.unlockAll()
	sp := s.sobs.spanRebuild()
	defer sp.End()
	ver := s.version.Load() // quiescent: mutators bump under a data lock we hold

	// Time reconciliation: the first build and a build at an earlier
	// time invalidate everything (liveness is evaluated at build time, so
	// history is not monotone), forwards dirties the rows of evidence
	// that expired in (lastNow, now] and drops those files' lists.
	switch {
	case !s.lastNowSet || now < s.lastNow:
		s.markAllDirty()
		s.lastNow, s.lastNowSet = now, true
	case now > s.lastNow:
		if s.eng.cfg.Window > 0 {
			prev := s.lastNow
			s.parallelShards(s.workers(), func(_, si int) {
				for _, p := range s.owned[si] {
					for _, f := range s.eng.stores[p].ExpiredBetween(prev, now) {
						s.eng.dirtyEvaluationTo(p, f, s.markShard)
					}
				}
			})
		}
		s.lastNow = now
	}

	// Drain + recompute, shard by shard on min(K, GOMAXPROCS) workers,
	// each with its own pair scratch. tmDirty[si] collects the shard's
	// rows recomputed in some dimension, ascending.
	var changed atomic.Bool
	tmDirty := make([][]int, s.k)
	workers := s.workers()
	if len(s.pairs) > workers {
		clear(s.pairs[workers:]) // GOMAXPROCS fell: let the extra scratches go
		s.pairs = s.pairs[:workers]
	}
	for len(s.pairs) < workers {
		s.pairs = append(s.pairs, nil)
	}
	s.parallelShards(workers, func(w, si int) {
		shSp := s.sobs.spanShardRebuild(si)
		defer shSp.End()
		sh := &s.shards[si]
		sh.dirtyMu.Lock()
		var dirty [3]map[int]struct{}
		var all [3]bool
		for d := 0; d < 3; d++ {
			all[d] = sh.all[d]
			sh.all[d] = false
			dirty[d] = sh.dirty[d]
			if len(dirty[d]) > 0 {
				sh.dirty[d] = make(map[int]struct{})
			}
		}
		sh.dirtyMu.Unlock()
		if s.pairs[w] == nil {
			s.pairs[w] = newPairScratch(s.eng.n)
		}
		owned := s.owned[si]
		full := false
		var union []int
		for d := 0; d < 3; d++ {
			if !all[d] && len(dirty[d]) == 0 {
				continue
			}
			changed.Store(true)
			rowFn := s.eng.rowFunc(d, now, s.pairs[w])
			if all[d] {
				full = true
				bsp := s.obs.startBuild(d, uint64(len(owned)))
				for _, i := range owned {
					s.dims[d][i] = rowFn(i)
				}
				bsp.End()
				continue
			}
			bsp := s.obs.startBuild(d, uint64(len(dirty[d])))
			for i := range dirty[d] {
				s.dims[d][i] = rowFn(i)
				union = append(union, i)
			}
			bsp.End()
		}
		if full {
			tmDirty[si] = owned
			return
		}
		slices.Sort(union)
		tmDirty[si] = slices.Compact(union)
	})
	if !changed.Load() {
		s.tmCache.Store(&shardedTM{tm: s.tm, now: now, version: ver})
		return s.tm, nil
	}

	// Patch TM (Eq. 7) in the union of the shards' dirty rows. Shards own
	// disjoint rows, so a union of n rows is every row.
	var dirty []int
	for _, rows := range tmDirty {
		dirty = append(dirty, rows...)
	}
	if len(dirty) == s.eng.n {
		for i := range dirty {
			dirty[i] = i
		}
	} else {
		slices.Sort(dirty)
	}
	rsp := s.obs.startRefreeze()
	tm, err := s.eng.integrate(s.tm, dirty, s.dims)
	if err != nil {
		return nil, err
	}
	s.tm = tm
	s.epoch.Add(1)
	s.obs.refrozen(rsp)
	s.tmCache.Store(&shardedTM{tm: s.tm, now: now, version: ver})
	return s.tm, nil
}

// --- reads -------------------------------------------------------------------

// BuildRM computes RM = TM^n (Eq. 8); the power chain runs outside any
// lock.
func (s *Sharded) BuildRM(now time.Duration) (*sparse.CSR, error) {
	tm, err := s.TM(now)
	if err != nil {
		return nil, err
	}
	sp := s.obs.spanBuildRM()
	rm, err := tm.Pow(s.Config().Steps)
	sp.End()
	return rm, err
}

// Reputations returns row i of RM. Only the TM fetch synchronises; the
// walk runs against the immutable snapshot.
func (s *Sharded) Reputations(i int, now time.Duration) (map[int]float64, error) {
	if err := s.eng.checkPeer(i); err != nil {
		return nil, err
	}
	tm, err := s.TM(now)
	if err != nil {
		return nil, err
	}
	sp := s.obs.spanRepWalk()
	row, err := tm.RowVecPow(i, s.Config().Steps)
	sp.End()
	return row, err
}

// ReputationsFromTM runs the walk against a caller-held frozen matrix.
func (s *Sharded) ReputationsFromTM(tm *sparse.CSR, i int) (map[int]float64, error) {
	if err := s.eng.checkPeer(i); err != nil {
		return nil, err
	}
	return tm.RowVecPow(i, s.Config().Steps)
}

// Evaluation returns peer p's blended evaluation of f under the owner
// shard's lock.
func (s *Sharded) Evaluation(p int, f eval.FileID, now time.Duration) (float64, bool) {
	if s.eng.checkPeer(p) != nil {
		return 0, false
	}
	sh := &s.shards[s.shardOf[p]]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.eng.stores[p].Get(f, now)
}

// JudgeFile mirrors Engine.JudgeFile: reputations via the shared TM
// path, then the threshold decision (pure, configuration-only).
func (s *Sharded) JudgeFile(i int, owners []OwnerEvaluation, now time.Duration) (Judgement, error) {
	reps, err := s.Reputations(i, now)
	if err != nil {
		return Judgement{}, err
	}
	return s.eng.judgeWith(reps, owners)
}

// JudgeFileFromTM mirrors Engine.JudgeFileFromTM; no lock is held
// during the walk.
func (s *Sharded) JudgeFileFromTM(tm *sparse.CSR, i int, owners []OwnerEvaluation) (Judgement, error) {
	return s.eng.JudgeFileFromTM(tm, i, owners)
}

// CollectOwnerEvaluations reads the owners' published evaluations
// stop-the-world (owners may live on any shard).
func (s *Sharded) CollectOwnerEvaluations(f eval.FileID, owners []int, now time.Duration) []OwnerEvaluation {
	s.lockAll()
	defer s.unlockAll()
	return s.eng.CollectOwnerEvaluations(f, owners, now)
}

// ExportState deep-copies the full engine state stop-the-world.
func (s *Sharded) ExportState() *EngineState {
	s.lockAll()
	defer s.unlockAll()
	return s.eng.ExportState()
}

// --- per-shard snapshot state ------------------------------------------------

// ShardState is the serializable state of one shard's peers — the
// per-shard snapshot unit of journal.OpenSharded. N, K and Shard pin
// the population, shard count and shard index: a snapshot taken under
// one partitioning must not restore into another.
type ShardState struct {
	N     int         `json:"n"`
	K     int         `json:"k"`
	Shard int         `json:"shard"`
	Peers []PeerState `json:"peers"`
}

// PeerState is one peer's slice of the engine state, ascending by ID
// within a ShardState.
type PeerState struct {
	ID        int                         `json:"id"`
	Store     map[eval.FileID]eval.Record `json:"store,omitempty"`
	Downloads map[int][]Download          `json:"downloads,omitempty"`
	UserTrust map[int]float64             `json:"user_trust,omitempty"`
	Blacklist []int                       `json:"blacklist,omitempty"`
}

// ExportShardState deep-copies shard si's peers under its data lock.
func (s *Sharded) ExportShardState(si int) (*ShardState, error) {
	if si < 0 || si >= s.k {
		return nil, fmt.Errorf("core: shard %d outside [0, %d)", si, s.k)
	}
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	full := s.eng // evidence reads below touch only owned peers
	st := &ShardState{N: s.eng.n, K: s.k, Shard: si}
	for _, p := range s.owned[si] {
		ps := PeerState{ID: p, Store: full.stores[p].Export()}
		if per := full.downloads[p]; len(per) > 0 {
			ps.Downloads = cloneLedgers(per)
		}
		if per := full.userTrust[p]; len(per) > 0 {
			ps.UserTrust = maps.Clone(per)
		}
		if per := full.blacklist[p]; len(per) > 0 {
			out := make([]int, 0, len(per))
			for j := range per {
				out = append(out, j)
			}
			sort.Ints(out)
			ps.Blacklist = out
		}
		st.Peers = append(st.Peers, ps)
	}
	return st, nil
}

// RestoreShard replaces shard si's peers' evidence with a snapshot,
// leaving every other shard untouched — the parallel-recovery path:
// each shard restores its snapshot and replays its own journal tail
// concurrently. Because restored evidence changes FM pairings of
// co-evaluators on any shard, every shard's dimensions are marked
// all-dirty and every kept evaluator list is dropped.
func (s *Sharded) RestoreShard(si int, st *ShardState) error {
	if si < 0 || si >= s.k {
		return fmt.Errorf("core: shard %d outside [0, %d)", si, s.k)
	}
	if st == nil {
		return fmt.Errorf("core: nil shard state")
	}
	if st.N != s.eng.n || st.K != s.k || st.Shard != si {
		return fmt.Errorf("core: shard state (n=%d k=%d shard=%d) does not match engine (n=%d k=%d shard=%d)",
			st.N, st.K, st.Shard, s.eng.n, s.k, si)
	}
	cfg := s.eng.cfg
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, p := range s.owned[si] {
		store, err := eval.NewStore(cfg.Blend, cfg.Window)
		if err != nil {
			return err
		}
		s.eng.stores[p] = store
		s.eng.downloads[p] = nil
		s.eng.userTrust[p] = nil
		s.eng.blacklist[p] = nil
	}
	owns := s.ownsFunc(si)
	s.eng.evaluators.prune(owns, func(int, eval.FileID) bool { return true })
	for _, ps := range st.Peers {
		p := ps.ID
		if p < 0 || p >= s.eng.n || !owns(p) {
			return fmt.Errorf("core: peer %d in shard %d snapshot is not owned by it", p, si)
		}
		if err := s.eng.restorePeer(ps); err != nil {
			return err
		}
	}
	s.markAllDirty()
	s.version.Add(1)
	return nil
}

// markAllDirty marks every row of every dimension dirty on every shard
// and drops every kept evaluator list, so the next rebuild is a full
// build. The caller holds at least one shard data lock, which orders
// the stripe locks dropLists takes.
func (s *Sharded) markAllDirty() {
	for si := range s.shards {
		sh := &s.shards[si]
		sh.dirtyMu.Lock()
		for d := 0; d < 3; d++ {
			sh.all[d] = true
			if len(sh.dirty[d]) > 0 {
				sh.dirty[d] = make(map[int]struct{})
			}
		}
		sh.dirtyMu.Unlock()
	}
	s.eng.evaluators.dropLists()
}
