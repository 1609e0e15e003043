// Package eval implements the evaluation model of §3.1.1: per-file
// implicit evaluations inferred from retention time, explicit evaluations
// from votes, and their weighted blend
//
//	E_ij = IE_ij                     if user i did not vote on file j
//	E_ij = η·IE_ij + ρ·EE_ij         if user i voted, η + ρ = 1   (Eq. 1)
//
// together with windowed per-peer evaluation stores (§4.3: "users only
// need to preserve the evaluations within an interval") and the signed
// EvaluationInfo record published to the DHT (§4.1).
package eval

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// FileID identifies a file by content hash, as in the Maze log schema.
type FileID string

// Blend holds the weights of Eq. (1). The zero value is invalid; use
// DefaultBlend or construct explicitly and Validate.
type Blend struct {
	// Eta weights the implicit (retention-time) evaluation.
	Eta float64
	// Rho weights the explicit (vote) evaluation.
	Rho float64
}

// DefaultBlend weights explicit votes above implicit retention because
// votes "reflect a user's evaluation of files more accurately" (§3.1.1).
func DefaultBlend() Blend { return Blend{Eta: 0.4, Rho: 0.6} }

// Validate checks η, ρ ∈ [0,1] and η + ρ = 1.
func (b Blend) Validate() error {
	if b.Eta < 0 || b.Eta > 1 || b.Rho < 0 || b.Rho > 1 {
		return errors.New("eval: blend weights must lie in [0,1]")
	}
	if d := b.Eta + b.Rho; d < 1-1e-9 || d > 1+1e-9 {
		return fmt.Errorf("eval: blend weights sum to %v, want 1", d)
	}
	return nil
}

// Record is one user's evaluation state for one file.
type Record struct {
	// Implicit is the retention-inferred evaluation in [0,1].
	Implicit float64
	// Explicit is the vote in [0,1]; meaningful only when Voted.
	Explicit float64
	// Voted reports whether the user cast an explicit vote.
	Voted bool
	// UpdatedAt is the virtual time of the last update, used for window
	// expiry.
	UpdatedAt time.Duration
}

// Value returns the blended evaluation E of Eq. (1).
func (r Record) Value(b Blend) float64 {
	if !r.Voted {
		return clamp01(r.Implicit)
	}
	return clamp01(b.Eta*r.Implicit + b.Rho*r.Explicit)
}

// clamp01 limits v to [0,1]. NaN, which every comparison fails, becomes
// 0: a value that is not a number carries no approval, and a NaN kept in
// a store would pass no range check downstream.
func clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// RetentionModel maps a file's retention time on a user's machine to an
// implicit evaluation in [0,1]. Retention saturates at Saturation: keeping
// a file that long signals full approval; deleting it immediately signals
// rejection. A minimum floor avoids punishing brand-new downloads.
type RetentionModel struct {
	// Saturation is the retention time mapped to IE = 1.
	Saturation time.Duration
	// Floor is the implicit evaluation of a file at retention zero; new
	// downloads start here and grow as the file survives.
	Floor float64
}

// DefaultRetentionModel saturates at 7 days with a floor of 0.5 (a fresh
// download is neutral until the user's behaviour reveals a judgement).
func DefaultRetentionModel() RetentionModel {
	return RetentionModel{Saturation: 7 * 24 * time.Hour, Floor: 0.5}
}

// Implicit maps a retention duration to an evaluation. Deleted is true
// when the user explicitly removed the file; deletion before saturation
// scales the evaluation down toward zero (fast deletion of a fake file is
// a strong negative signal, which the incentive mechanism rewards peers
// for producing quickly, §3.4).
func (m RetentionModel) Implicit(retention time.Duration, deleted bool) float64 {
	if m.Saturation <= 0 {
		return clamp01(m.Floor)
	}
	frac := float64(retention) / float64(m.Saturation)
	if frac > 1 {
		frac = 1
	}
	if deleted {
		// A deleted file's evaluation is proportional to how long it was
		// kept: immediate deletion → 0, deletion after saturation → ~0.5.
		return clamp01(0.5 * frac)
	}
	return clamp01(m.Floor + (1-m.Floor)*frac)
}

// Store holds one peer's evaluations with window expiry.
type Store struct {
	blend   Blend
	window  time.Duration // 0 disables expiry
	records map[FileID]Record
	// oldest is a lower bound on every record's UpdatedAt: while
	// now − oldest ≤ window nothing can have expired, so the expiry
	// queries return without a scan. Writes lower it, Import and
	// Compact recompute it, and Forget leaves it (still a bound).
	oldest time.Duration
}

// NewStore builds an empty store. window is the evaluation retention
// interval of §4.3; zero keeps evaluations forever.
func NewStore(blend Blend, window time.Duration) (*Store, error) {
	if err := blend.Validate(); err != nil {
		return nil, err
	}
	if window < 0 {
		return nil, errors.New("eval: negative window")
	}
	return &Store{blend: blend, window: window, records: make(map[FileID]Record)}, nil
}

// Blend returns the store's blend weights.
func (s *Store) Blend() Blend { return s.blend }

// SetImplicit records an implicit evaluation for file f at time now,
// preserving any existing vote.
func (s *Store) SetImplicit(f FileID, v float64, now time.Duration) {
	s.noteWrite(now)
	r := s.records[f]
	r.Implicit = clamp01(v)
	r.UpdatedAt = now
	s.records[f] = r
}

// Vote records an explicit evaluation for file f at time now, preserving
// the implicit component.
func (s *Store) Vote(f FileID, v float64, now time.Duration) {
	s.noteWrite(now)
	r := s.records[f]
	r.Explicit = clamp01(v)
	r.Voted = true
	r.UpdatedAt = now
	s.records[f] = r
}

// noteWrite lowers the UpdatedAt bound for a write at now. Called before
// the write: an empty store has no bound to keep.
func (s *Store) noteWrite(now time.Duration) {
	if len(s.records) == 0 || now < s.oldest {
		s.oldest = now
	}
}

// resetOldest recomputes the UpdatedAt bound from the records.
func (s *Store) resetOldest() {
	first := true
	for _, r := range s.records {
		if first || r.UpdatedAt < s.oldest {
			s.oldest, first = r.UpdatedAt, false
		}
	}
}

// noneExpired reports, without a scan, that no record has expired by
// now.
func (s *Store) noneExpired(now time.Duration) bool {
	return s.window <= 0 || len(s.records) == 0 || now-s.oldest <= s.window
}

// Forget removes the evaluation of file f (e.g. the file churned away and
// the peer prunes state).
func (s *Store) Forget(f FileID) { delete(s.records, f) }

// Get returns the blended evaluation of file f at time now and whether a
// live (non-expired) evaluation exists.
func (s *Store) Get(f FileID, now time.Duration) (float64, bool) {
	r, ok := s.records[f]
	if !ok || s.expired(r, now) {
		return 0, false
	}
	return r.Value(s.blend), true
}

// Record returns the raw record for f, if present and live.
func (s *Store) Record(f FileID, now time.Duration) (Record, bool) {
	r, ok := s.records[f]
	if !ok || s.expired(r, now) {
		return Record{}, false
	}
	return r, true
}

func (s *Store) expired(r Record, now time.Duration) bool {
	return s.window > 0 && now-r.UpdatedAt > s.window
}

// Len returns the number of stored records, including expired ones not yet
// compacted.
func (s *Store) Len() int { return len(s.records) }

// ExpiredBetween returns the files whose evaluations were live at prev
// but have expired by now (prev < now). core.Sharded's rebuild calls it
// on every store after each clock advance to find the rows invalidated
// purely by the passage of virtual time — an expiry changes FM and DM
// rows without any event being applied. It returns without a scan while
// the oldest record is still inside the window.
func (s *Store) ExpiredBetween(prev, now time.Duration) []FileID {
	if now <= prev || s.noneExpired(now) {
		return nil
	}
	var out []FileID
	for f, r := range s.records {
		if !s.expired(r, prev) && s.expired(r, now) {
			out = append(out, f)
		}
	}
	return out
}

// ExpiredFiles returns the files whose evaluations have expired as of
// now — exactly the records Compact(now) would drop.
func (s *Store) ExpiredFiles(now time.Duration) []FileID {
	if s.noneExpired(now) {
		return nil
	}
	var out []FileID
	for f, r := range s.records {
		if s.expired(r, now) {
			out = append(out, f)
		}
	}
	return out
}

// Compact drops expired records and returns how many were removed.
func (s *Store) Compact(now time.Duration) int {
	removed := 0
	for f, r := range s.records {
		if s.expired(r, now) {
			delete(s.records, f)
			removed++
		}
	}
	s.resetOldest()
	return removed
}

// Files returns the IDs of all live evaluations at time now, sorted for
// determinism.
func (s *Store) Files(now time.Duration) []FileID {
	out := make([]FileID, 0, len(s.records))
	for f, r := range s.records {
		if !s.expired(r, now) {
			out = append(out, f)
		}
	}
	slices.Sort(out)
	return out
}

// Snapshot returns all live (file, value) pairs at time now; the map is a
// copy the caller may keep.
func (s *Store) Snapshot(now time.Duration) map[FileID]float64 {
	out := make(map[FileID]float64, len(s.records))
	for f, r := range s.records {
		if !s.expired(r, now) {
			out[f] = r.Value(s.blend)
		}
	}
	return out
}
