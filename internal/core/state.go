package core

import (
	"fmt"
	"maps"
	"slices"
)

// checkTargets checks every download, rating and blacklist target of a
// peer's snapshot against the population, so RestoreShard can refuse a
// snapshot before it touches any evidence.
func (e *engine) checkTargets(ps PeerState) error {
	inRange := func(what string, j int) error {
		if j < 0 || j >= e.n {
			return fmt.Errorf("core: %s target %d outside [0, %d)", what, j, e.n)
		}
		return nil
	}
	for j := range ps.Downloads {
		if err := inRange("download", j); err != nil {
			return err
		}
	}
	for j := range ps.UserTrust {
		if err := inRange("rating", j); err != nil {
			return err
		}
	}
	for _, j := range ps.Blacklist {
		if err := inRange("blacklist", j); err != nil {
			return err
		}
	}
	return nil
}

// restorePeer loads one checked peer snapshot into the peer's empty
// evidence, copying everything. It is the restore step of
// Sharded.RestoreShard.
func (e *engine) restorePeer(ps PeerState) {
	p := ps.ID
	e.stores[p].Import(ps.Store)
	for f := range ps.Store {
		e.evaluators.add(f, p)
	}
	if len(ps.Downloads) > 0 {
		e.downloads[p] = cloneLedgers(ps.Downloads)
	}
	if len(ps.UserTrust) > 0 {
		e.userTrust[p] = maps.Clone(ps.UserTrust)
	}
	if len(ps.Blacklist) > 0 {
		m := make(map[int]struct{}, len(ps.Blacklist))
		for _, j := range ps.Blacklist {
			m[j] = struct{}{}
		}
		e.blacklist[p] = m
	}
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
