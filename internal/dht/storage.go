package dht

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/identity"
)

// StoredRecord is one replica-stored item: a file's index entry from one
// owner, carrying the owner's signed evaluation (§4.1 step 1:
// "EvaluationInfo = <FileID, OwnerID, Evaluation, Signature>").
type StoredRecord struct {
	// Key is the ring position of the file (HashKey of the content
	// hash).
	Key ID `json:"key"`
	// Info is the signed evaluation bundle.
	Info eval.Info `json:"info"`
	// StoredAt is the local wall-clock time the replica accepted the
	// record; TTL expiry runs against it.
	StoredAt time.Time `json:"-"`
}

// Storage is a replica's record store: key → the newest record of each
// owner. Records expire TTL after their last (re)publication, implementing
// §4.3's "preserve the evaluations within an interval" and
// garbage-collecting departed owners.
type Storage struct {
	mu  sync.RWMutex
	ttl time.Duration
	// verify, when non-nil, rejects records whose signature does not
	// check out against the directory (§4.2 attack 1).
	verify *identity.Directory
	// records holds each key's records sorted by owner, one per owner. A
	// slice, not a map per key: most keys have one owner or a few, and
	// a map's first insert allocates a whole group of slots.
	records map[ID][]StoredRecord
	now     func() time.Time
}

// NewStorage builds a store. ttl of zero disables expiry; dir of nil
// disables signature verification (used by pure-simulation rings where
// records are synthesised unsigned).
func NewStorage(ttl time.Duration, dir *identity.Directory) *Storage {
	return &Storage{
		ttl:     ttl,
		verify:  dir,
		records: make(map[ID][]StoredRecord),
		now:     time.Now,
	}
}

// Put merges records into the store. A record replaces an existing one
// from the same owner only if its evaluation timestamp is not older
// (republication refreshes; replayed stale records are ignored). It
// returns the number of records accepted. A stored record is the §4.1
// record and is judged alone, so Put drops its list signature
// (eval.Info.ListSignature) and, with a directory, checks each record by
// its own signature first, in parallel (eval.VerifyAll) and before the
// store is locked, so readers do not wait on verification; the records
// that pass are then merged in input order.
func (s *Storage) Put(recs []StoredRecord) int {
	var errs []error
	if s.verify != nil {
		infos := make([]eval.Info, len(recs))
		for i := range recs {
			infos[i] = recs[i].Info
			infos[i].ListSignature = nil
		}
		errs = eval.VerifyAll(s.verify, infos)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	accepted := 0
	now := s.now()
	for i, r := range recs {
		if errs != nil && errs[i] != nil {
			continue // forged record
		}
		r.Info.ListSignature = nil
		r.StoredAt = now
		perKey := s.records[r.Key]
		k, found := slices.BinarySearchFunc(perKey, r.Info.OwnerID, byOwner)
		switch {
		case !found:
			s.records[r.Key] = slices.Insert(perKey, k, r)
		case perKey[k].Info.Timestamp > r.Info.Timestamp:
			continue
		default:
			perKey[k] = r
		}
		accepted++
	}
	return accepted
}

func byOwner(r StoredRecord, owner identity.PeerID) int {
	return cmp.Compare(r.Info.OwnerID, owner)
}

// Get returns the live records under key, sorted by owner for determinism.
func (s *Storage) Get(key ID) []StoredRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	perKey := s.records[key]
	if len(perKey) == 0 {
		return nil
	}
	return s.appendLive(make([]StoredRecord, 0, len(perKey)), perKey, s.now())
}

// appendLive appends the records of recs that have not expired by now.
func (s *Storage) appendLive(out, recs []StoredRecord, now time.Time) []StoredRecord {
	for _, r := range recs {
		if !s.expired(r, now) {
			out = append(out, r)
		}
	}
	return out
}

func (s *Storage) expired(r StoredRecord, now time.Time) bool {
	return s.ttl > 0 && now.Sub(r.StoredAt) > s.ttl
}

// Sweep drops expired records; call periodically. Returns removals.
func (s *Storage) Sweep() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	removed := 0
	for key, perKey := range s.records {
		kept := s.appendLive(perKey[:0], perKey, now)
		removed += len(perKey) - len(kept)
		clear(perKey[len(kept):])
		if len(kept) == 0 {
			delete(s.records, key)
		} else {
			s.records[key] = kept
		}
	}
	return removed
}

// Len returns the number of stored records (including not-yet-swept
// expired ones).
func (s *Storage) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, perKey := range s.records {
		n += len(perKey)
	}
	return n
}

// RecordsInRange returns records whose key falls in the ring interval
// (from, to], sorted by key and then owner; used to hand off keys when a
// node joins or leaves.
func (s *Storage) RecordsInRange(from, to ID) []StoredRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []ID
	for key := range s.records {
		if Between(key, from, to) {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	now := s.now()
	var out []StoredRecord
	for _, key := range keys {
		out = s.appendLive(out, s.records[key], now)
	}
	return out
}

// All returns every live record; used for replication repair.
func (s *Storage) All() []StoredRecord {
	return s.RecordsInRange(0, 0) // (a, a] spans the whole ring
}
