package eval

// Export and Import move a store's raw records across a process
// boundary — the snapshot half of the durable-state subsystem
// (internal/journal). Records are exported verbatim, including entries
// that have expired but not yet been compacted: a snapshot must capture
// the store exactly as it is, or replaying the remaining journal tail on
// top of it diverges from the uninterrupted run.

// Export returns a copy of every record in the store, keyed by file.
func (s *Store) Export() map[FileID]Record {
	out := make(map[FileID]Record, len(s.records))
	for f, r := range s.records {
		out[f] = r
	}
	return out
}

// Import replaces the store's contents with a copy of records. The
// store's blend and window are unchanged — they are configuration, not
// state.
func (s *Store) Import(records map[FileID]Record) {
	s.records = make(map[FileID]Record, len(records))
	for f, r := range records {
		s.records[f] = r
	}
	s.resetOldest()
}
