package core

import (
	"sync"

	"mdrep/internal/eval"
)

// evalIndex is the inverted file → evaluators index, striped by file hash
// so concurrent shard writers (core.Sharded's per-shard apply paths) do
// not serialise behind one map mutex. The bare Engine uses the same
// index single-threaded; the stripe mutexes are then uncontended and cost
// one atomic each, which keeps the two code paths literally identical —
// the foundation of the shard-count invariance guarantee.
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
	files map[eval.FileID]map[int]struct{}
}

func newEvalIndex() *evalIndex {
	x := &evalIndex{}
	for i := range x.stripes {
		x.stripes[i].files = make(map[eval.FileID]map[int]struct{})
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

// add records that peer p holds an evaluation of file f.
func (x *evalIndex) add(f eval.FileID, p int) {
	s := x.stripeOf(f)
	s.mu.Lock()
	m := s.files[f]
	if m == nil {
		m = make(map[int]struct{}, 4)
		s.files[f] = m
	}
	m[p] = struct{}{}
	s.mu.Unlock()
}

// forEachPeer calls fn for every indexed evaluator of f, under the stripe
// lock. fn must not acquire a shard data lock or touch the index.
func (x *evalIndex) forEachPeer(f eval.FileID, fn func(p int)) {
	s := x.stripeOf(f)
	s.mu.Lock()
	for p := range s.files[f] {
		fn(p)
	}
	s.mu.Unlock()
}

// fileCount returns the number of indexed files.
func (x *evalIndex) fileCount() int {
	n := 0
	for i := range x.stripes {
		s := &x.stripes[i]
		s.mu.Lock()
		n += len(s.files)
		s.mu.Unlock()
	}
	return n
}

// prune removes index entries for peers selected by owns whose evaluation
// of the file is dead per the dead predicate, dropping files whose
// evaluator set empties. A nil owns selects every peer. Removal is
// per-entry and commutative, so concurrent pruners over disjoint owner
// sets (per-shard compaction replay) converge to the same index.
func (x *evalIndex) prune(owns func(p int) bool, dead func(p int, f eval.FileID) bool) {
	for i := range x.stripes {
		s := &x.stripes[i]
		s.mu.Lock()
		for f, peers := range s.files {
			for p := range peers {
				if owns != nil && !owns(p) {
					continue
				}
				if dead(p, f) {
					delete(peers, p)
				}
			}
			if len(peers) == 0 {
				delete(s.files, f)
			}
		}
		s.mu.Unlock()
	}
}
