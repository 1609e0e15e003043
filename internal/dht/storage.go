package dht

import (
	"sort"
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

// Storage is a replica's record store: key → owner → newest record.
// Records expire TTL after their last (re)publication, implementing §4.3's
// "preserve the evaluations within an interval" and garbage-collecting
// departed owners.
type Storage struct {
	mu  sync.RWMutex
	ttl time.Duration
	// verify, when non-nil, rejects records whose signature does not
	// check out against the directory (§4.2 attack 1).
	verify  *identity.Directory
	records map[ID]map[identity.PeerID]StoredRecord
	now     func() time.Time
}

// NewStorage builds a store. ttl of zero disables expiry; dir of nil
// disables signature verification (used by pure-simulation rings where
// records are synthesised unsigned).
func NewStorage(ttl time.Duration, dir *identity.Directory) *Storage {
	return &Storage{
		ttl:     ttl,
		verify:  dir,
		records: make(map[ID]map[identity.PeerID]StoredRecord),
		now:     time.Now,
	}
}

// Put merges records into the store. A record replaces an existing one
// from the same owner only if its evaluation timestamp is not older
// (republication refreshes; replayed stale records are ignored). It
// returns the number of records accepted. With a directory, every
// record's signature is checked first, in parallel (eval.VerifyAll) and
// before the store is locked, so readers do not wait on verification;
// the records that pass are then merged in input order.
func (s *Storage) Put(recs []StoredRecord) int {
	var errs []error
	if s.verify != nil {
		infos := make([]eval.Info, len(recs))
		for i := range recs {
			infos[i] = recs[i].Info
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
		perOwner := s.records[r.Key]
		if perOwner == nil {
			perOwner = make(map[identity.PeerID]StoredRecord, 4)
			s.records[r.Key] = perOwner
		}
		if old, ok := perOwner[r.Info.OwnerID]; ok && old.Info.Timestamp > r.Info.Timestamp {
			continue
		}
		r.StoredAt = now
		perOwner[r.Info.OwnerID] = r
		accepted++
	}
	return accepted
}

// Get returns the live records under key, sorted by owner for determinism.
func (s *Storage) Get(key ID) []StoredRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	perOwner := s.records[key]
	if len(perOwner) == 0 {
		return nil
	}
	now := s.now()
	out := make([]StoredRecord, 0, len(perOwner))
	for _, r := range perOwner {
		if s.expired(r, now) {
			continue
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info.OwnerID < out[j].Info.OwnerID })
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
	for key, perOwner := range s.records {
		for owner, r := range perOwner {
			if s.expired(r, now) {
				delete(perOwner, owner)
				removed++
			}
		}
		if len(perOwner) == 0 {
			delete(s.records, key)
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
	for _, perOwner := range s.records {
		n += len(perOwner)
	}
	return n
}

// RecordsInRange returns records whose key falls in the ring interval
// (from, to]; used to hand off keys when a node joins or leaves.
func (s *Storage) RecordsInRange(from, to ID) []StoredRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := s.now()
	var out []StoredRecord
	for key, perOwner := range s.records {
		if !Between(key, from, to) {
			continue
		}
		for _, r := range perOwner {
			if !s.expired(r, now) {
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Info.OwnerID < out[j].Info.OwnerID
	})
	return out
}

// All returns every live record; used for replication repair.
func (s *Storage) All() []StoredRecord {
	return s.RecordsInRange(0, 0) // (a, a] spans the whole ring
}
