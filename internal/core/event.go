package core

import (
	"fmt"
	"math"
	"time"

	"mdrep/internal/eval"
)

// The engine's mutation surface is an event model: every state change is
// expressed as a serializable Event and applied through ApplyEvent. The
// public mutating methods (Vote, RecordDownload, …) are thin constructors
// over it. This is what makes the engine journal-able — internal/journal
// appends the encoded event to a write-ahead log before applying it, and
// crash recovery replays the same events through the same code path, so a
// restored engine is the engine that crashed.

// EventKind discriminates engine events. Values are part of the on-disk
// journal format — append new kinds, never renumber.
type EventKind uint8

const (
	// EventSetImplicit records an implicit (retention-derived) evaluation:
	// I = peer, File, Value, Time.
	EventSetImplicit EventKind = 1
	// EventVote records an explicit evaluation: I = peer, File, Value, Time.
	EventVote EventKind = 2
	// EventDownload records a completed transfer: I = downloader,
	// J = uploader, File, Size, Time.
	EventDownload EventKind = 3
	// EventRateUser records UT_ij: I, J, Value.
	EventRateUser EventKind = 4
	// EventBlacklist permanently zeroes UT_ij: I, J.
	EventBlacklist EventKind = 5
	// EventCompact drops expired evaluations as of Time.
	EventCompact EventKind = 6
)

// String names the kind for diagnostics.
func (k EventKind) String() string {
	switch k {
	case EventSetImplicit:
		return "set-implicit"
	case EventVote:
		return "vote"
	case EventDownload:
		return "download"
	case EventRateUser:
		return "rate-user"
	case EventBlacklist:
		return "blacklist"
	case EventCompact:
		return "compact"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one serializable engine mutation. Unused fields are zero for
// kinds that do not need them.
type Event struct {
	Kind EventKind `json:"kind"`
	// I is the acting peer; J the target peer where one exists.
	I int `json:"i"`
	J int `json:"j,omitempty"`
	// File is the subject file for evaluation and download events.
	File eval.FileID `json:"file,omitempty"`
	// Value is the evaluation or rating in [0,1].
	Value float64 `json:"value,omitempty"`
	// Size is the transfer size in bytes for download events.
	Size int64 `json:"size,omitempty"`
	// Time is the virtual time the event occurred at.
	Time time.Duration `json:"time,omitempty"`
}

// ValidateEvent checks an event against a population of n peers without
// applying it. It covers every error path of ApplyEvent, so a batch that
// validates clean is guaranteed to apply clean — the precondition the
// all-or-report ApplyBatch contract (and the sharded group-commit path)
// is built on.
func ValidateEvent(n int, ev Event) error {
	checkPeer := func(p int) error {
		if p < 0 || p >= n {
			return fmt.Errorf("core: peer %d outside [0, %d)", p, n)
		}
		return nil
	}
	switch ev.Kind {
	case EventSetImplicit, EventVote:
		return checkPeer(ev.I)
	case EventDownload:
		if err := checkPeer(ev.I); err != nil {
			return err
		}
		if err := checkPeer(ev.J); err != nil {
			return err
		}
		if ev.I == ev.J {
			return fmt.Errorf("core: self-download by peer %d", ev.I)
		}
		if ev.Size < 0 {
			return fmt.Errorf("core: negative size %d", ev.Size)
		}
		return nil
	case EventRateUser:
		if err := checkPeer(ev.I); err != nil {
			return err
		}
		if err := checkPeer(ev.J); err != nil {
			return err
		}
		if ev.I == ev.J {
			return fmt.Errorf("core: self-rating by peer %d", ev.I)
		}
		if v := ev.Value; math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("core: user rating %v outside [0,1]", ev.Value)
		}
		return nil
	case EventBlacklist:
		if err := checkPeer(ev.I); err != nil {
			return err
		}
		return checkPeer(ev.J)
	case EventCompact:
		return nil
	default:
		return fmt.Errorf("core: unknown event kind %d", ev.Kind)
	}
}

// BatchError reports which event of a batch failed validation. The
// wrapped error is the per-event error ApplyEvent would have returned.
type BatchError struct {
	// Index is the offset of the failing event in the batch.
	Index int
	// Err is the validation failure.
	Err error
}

func (b *BatchError) Error() string {
	return fmt.Sprintf("core: batch event %d: %v", b.Index, b.Err)
}

// Unwrap exposes the per-event error for errors.Is/As.
func (b *BatchError) Unwrap() error { return b.Err }

// ApplyEvent applies one event to the engine. It is deterministic: the
// same events applied in the same order to the same initial state produce
// the same engine state, which is what journal replay depends on.
func (e *Engine) ApplyEvent(ev Event) error {
	return e.applyTo(ev, func(int, int) {})
}

// applyTo applies one event and reports the dimension rows it
// invalidates through mark: an evaluation dirties the FM rows of the
// file's co-evaluators and the evaluator's DM row, a download one DM
// row, a rating or blacklisting one UM row. It is the shared mutation
// path of the bare Engine and of Sharded, whose marker routes each row
// to its owning shard's dirty tracker. Evidence mutations only ever
// touch the acting peer's own rows (stores[I], downloads[I],
// userTrust[I], blacklist[I]) plus the stripe-locked evaluator index,
// which is what lets shards apply disjoint owners' events concurrently.
func (e *Engine) applyTo(ev Event, mark markFunc) error {
	if err := ValidateEvent(e.n, ev); err != nil {
		return err
	}
	switch ev.Kind {
	case EventSetImplicit:
		e.stores[ev.I].SetImplicit(ev.File, ev.Value, ev.Time)
		e.indexEvaluator(ev.File, ev.I)
		e.dirtyEvaluationTo(ev.I, ev.File, mark)
	case EventVote:
		e.stores[ev.I].Vote(ev.File, ev.Value, ev.Time)
		e.indexEvaluator(ev.File, ev.I)
		e.dirtyEvaluationTo(ev.I, ev.File, mark)
	case EventDownload:
		m := e.downloads[ev.I]
		if m == nil {
			m = make(map[int][]Download)
			e.downloads[ev.I] = m
		}
		m[ev.J] = append(m[ev.J], Download{File: ev.File, Size: ev.Size})
		mark(dimDM, ev.I)
	case EventRateUser:
		if bl := e.blacklist[ev.I]; bl != nil {
			if _, banned := bl[ev.J]; banned {
				return nil
			}
		}
		if e.userTrust[ev.I] == nil {
			e.userTrust[ev.I] = make(map[int]float64)
		}
		e.userTrust[ev.I][ev.J] = ev.Value
		mark(dimUM, ev.I)
	case EventBlacklist:
		if e.blacklist[ev.I] == nil {
			e.blacklist[ev.I] = make(map[int]struct{})
		}
		e.blacklist[ev.I][ev.J] = struct{}{}
		if e.userTrust[ev.I] != nil {
			delete(e.userTrust[ev.I], ev.J)
		}
		mark(dimUM, ev.I)
	case EventCompact:
		e.compactEvidence(ev.Time, nil, mark)
	}
	return nil
}
