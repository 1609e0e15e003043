package core

import (
	"sync"

	"mdrep/internal/eval"
)

// evalIndex is the inverted file → evaluators index, striped by file hash
// so concurrent shard writers (core.Sharded's per-shard apply paths) do
// not serialise behind one map mutex. At K = 1 the stripe mutexes are
// uncontended and cost one atomic each, so every shard count runs the
// same code — the foundation of the shard-count invariance guarantee.
//
// Each file's entry also keeps the file's live-evaluator list, the one
// FM rows pair up, from one rebuild to the next. One rule drops it:
// whatever dirties the FM rows of the file's evaluators — a vote, an
// implicit evaluation, an expiry between builds, compaction — marks it
// stale under the stripe lock, as do index add and prune and every case
// that makes a rebuild a full build (the first build, time moving
// backwards, a shard restore). A stale list is
// derived again, at most once per rebuild, when a row first reads it.
//
// Lock ordering: stripe mutexes are acquired below shard data locks and
// above shard dirty locks (see sharded.go); a stripe callback may mark
// dirty rows but must never acquire a shard data lock.
type evalIndex struct {
	stripes [indexStripes]indexStripe
}

// indexStripes is the stripe count; a power of two so the hash folds with
// a mask. 64 stripes keep the collision probability of 8 concurrent
// shard writers low without bloating the empty index.
const indexStripes = 64

type indexStripe struct {
	mu    sync.Mutex
	files map[eval.FileID]*fileEntry
	// derived counts the lists derived in this stripe, for the list
	// contract tests.
	derived int
}

// fileEntry is one file's index entry.
type fileEntry struct {
	// peers holds every peer with an evaluation of the file, live or
	// expired but not yet compacted.
	peers map[int]struct{}
	// live is the kept list, valid only while fresh.
	live  fileEvaluators
	fresh bool
}

// fileEvaluators is one file's live, deterministically sampled
// evaluator list at the time it was derived: peers ascending, values
// parallel.
type fileEvaluators struct {
	peers []int
	vals  []float64
}

func newEvalIndex() *evalIndex {
	x := &evalIndex{}
	for i := range x.stripes {
		x.stripes[i].files = make(map[eval.FileID]*fileEntry)
	}
	return x
}

// stripeOf hashes a file ID to its stripe (FNV-1a, folded).
func (x *evalIndex) stripeOf(f eval.FileID) *indexStripe {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(f); i++ {
		h ^= uint64(f[i])
		h *= prime64
	}
	return &x.stripes[h&(indexStripes-1)]
}

// add records that peer p holds an evaluation of file f, and drops f's
// list.
func (x *evalIndex) add(f eval.FileID, p int) {
	s := x.stripeOf(f)
	s.mu.Lock()
	ent := s.files[f]
	if ent == nil {
		ent = &fileEntry{peers: make(map[int]struct{}, 4)}
		s.files[f] = ent
	}
	ent.peers[p] = struct{}{}
	ent.fresh = false
	s.mu.Unlock()
}

// dropList drops f's list and calls fn for every indexed evaluator of
// f, under the stripe lock. fn must not acquire a shard data lock or
// touch the index.
func (x *evalIndex) dropList(f eval.FileID, fn func(p int)) {
	s := x.stripeOf(f)
	s.mu.Lock()
	if ent := s.files[f]; ent != nil {
		ent.fresh = false
		for p := range ent.peers {
			fn(p)
		}
	}
	s.mu.Unlock()
}

// dropLists drops every file's list.
func (x *evalIndex) dropLists() {
	for i := range x.stripes {
		s := &x.stripes[i]
		s.mu.Lock()
		for _, ent := range s.files {
			ent.fresh = false
		}
		s.mu.Unlock()
	}
}

// list returns f's list, first deriving it under the stripe lock when
// it is stale: derive fills dst from the file's indexed evaluators,
// reusing dst's arrays. Lists are read only inside a build, which no
// mutation runs alongside (a Sharded rebuild holds every shard data
// lock), so the returned slices stay valid until the build ends; two
// rebuild workers that need the same stale list serialise here, and
// the second finds it fresh.
func (x *evalIndex) list(f eval.FileID, derive func(peers map[int]struct{}, dst *fileEvaluators)) fileEvaluators {
	s := x.stripeOf(f)
	s.mu.Lock()
	defer s.mu.Unlock()
	ent := s.files[f]
	if ent == nil {
		return fileEvaluators{}
	}
	if !ent.fresh {
		derive(ent.peers, &ent.live)
		ent.fresh = true
		s.derived++
	}
	return ent.live
}

// prune removes index entries for peers selected by owns whose evaluation
// of the file is dead per the dead predicate, dropping the list of every
// file it removes a peer from and the entry of every file whose
// evaluator set empties. A nil owns selects every peer. Removal is
// per-entry and commutative, so concurrent pruners over disjoint owner
// sets (per-shard compaction replay) converge to the same index.
func (x *evalIndex) prune(owns func(p int) bool, dead func(p int, f eval.FileID) bool) {
	for i := range x.stripes {
		s := &x.stripes[i]
		s.mu.Lock()
		for f, ent := range s.files {
			for p := range ent.peers {
				if owns != nil && !owns(p) {
					continue
				}
				if dead(p, f) {
					delete(ent.peers, p)
					ent.fresh = false
				}
			}
			if len(ent.peers) == 0 {
				delete(s.files, f)
			}
		}
		s.mu.Unlock()
	}
}
