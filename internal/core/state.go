package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"mdrep/internal/eval"
)

// EngineState is the full serializable state of an Engine — the snapshot
// half of the durable-state subsystem (internal/journal). It captures
// everything ApplyEvent can mutate; configuration is deliberately not
// part of it (the owner supplies the Config at restore time, exactly as
// at construction time). The inverted evaluator index is not stored
// either: it is derivable from the stores and rebuilt on restore.
type EngineState struct {
	// N is the population size; restore fails on mismatch rather than
	// silently renumbering peers.
	N int `json:"n"`
	// Stores holds each peer's raw evaluation records, including expired
	// entries not yet compacted — a snapshot is the state as-is.
	Stores []map[eval.FileID]eval.Record `json:"stores"`
	// Downloads mirrors Engine.downloads; entry order within a slice is
	// the append (event) order and must be preserved.
	Downloads []map[int][]Download `json:"downloads"`
	// UserTrust mirrors Engine.userTrust.
	UserTrust []map[int]float64 `json:"user_trust"`
	// Blacklist holds each peer's banned targets, sorted.
	Blacklist [][]int `json:"blacklist"`
}

// ExportState returns a deep copy of the engine's state.
func (e *Engine) ExportState() *EngineState {
	st := &EngineState{
		N:         e.n,
		Stores:    make([]map[eval.FileID]eval.Record, e.n),
		Downloads: make([]map[int][]Download, e.n),
		UserTrust: make([]map[int]float64, e.n),
		Blacklist: make([][]int, e.n),
	}
	for i, s := range e.stores {
		st.Stores[i] = s.Export()
	}
	for i, per := range e.downloads {
		if per != nil {
			st.Downloads[i] = cloneLedgers(per)
		}
	}
	for i, per := range e.userTrust {
		// A rating map that blacklisting emptied exports as nil, the
		// way it restores, so a round trip keeps the bytes.
		if len(per) > 0 {
			st.UserTrust[i] = maps.Clone(per)
		}
	}
	for i, per := range e.blacklist {
		if per == nil {
			continue
		}
		out := make([]int, 0, len(per))
		for j := range per {
			out = append(out, j)
		}
		sort.Ints(out)
		st.Blacklist[i] = out
	}
	return st
}

// NewEngineFromState rebuilds an engine from an exported state and the
// owner's configuration. The state is deep-copied; mutating it afterwards
// does not affect the engine.
func NewEngineFromState(st *EngineState, cfg Config) (*Engine, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil engine state")
	}
	e, err := NewEngine(st.N, cfg)
	if err != nil {
		return nil, err
	}
	if len(st.Stores) != st.N || len(st.Downloads) != st.N ||
		len(st.UserTrust) != st.N || len(st.Blacklist) != st.N {
		return nil, fmt.Errorf("core: engine state slices disagree with population %d", st.N)
	}
	for i := range st.Stores {
		ps := PeerState{ID: i, Store: st.Stores[i], Downloads: st.Downloads[i], UserTrust: st.UserTrust[i], Blacklist: st.Blacklist[i]}
		if err := e.restorePeer(ps); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// restorePeer loads one peer's snapshot into its empty evidence, copying
// everything and checking every target against the population. It is
// the restore step of NewEngineFromState and Sharded.RestoreShard.
func (e *Engine) restorePeer(ps PeerState) error {
	p := ps.ID
	e.stores[p].Import(ps.Store)
	for f := range ps.Store {
		e.indexEvaluator(f, p)
	}
	inRange := func(what string, j int) error {
		if j < 0 || j >= e.n {
			return fmt.Errorf("core: %s target %d outside [0, %d)", what, j, e.n)
		}
		return nil
	}
	if len(ps.Downloads) > 0 {
		for j := range ps.Downloads {
			if err := inRange("download", j); err != nil {
				return err
			}
		}
		e.downloads[p] = cloneLedgers(ps.Downloads)
	}
	if len(ps.UserTrust) > 0 {
		for j := range ps.UserTrust {
			if err := inRange("rating", j); err != nil {
				return err
			}
		}
		e.userTrust[p] = maps.Clone(ps.UserTrust)
	}
	if len(ps.Blacklist) > 0 {
		m := make(map[int]struct{}, len(ps.Blacklist))
		for _, j := range ps.Blacklist {
			if err := inRange("blacklist", j); err != nil {
				return err
			}
			m[j] = struct{}{}
		}
		e.blacklist[p] = m
	}
	return nil
}

// cloneLedgers deep-copies one peer's download ledgers, keyed by
// uploader.
func cloneLedgers(per map[int][]Download) map[int][]Download {
	m := make(map[int][]Download, len(per))
	for j, entries := range per {
		m[j] = slices.Clone(entries)
	}
	return m
}
