// Package journal is the durable-state subsystem: an append-only,
// CRC32-checksummed write-ahead log of state-machine events plus periodic
// full-state snapshots, so reputation state survives crashes, restarts
// and deploys. Without it every byte of trust history lives in memory and
// a process restart whitewashes the whole population — the exact attack
// (rejoining with a clean slate) the reputation system exists to stop.
//
// The package is layered:
//
//   - Log is payload-agnostic machinery: segment files of
//     length-prefixed, checksummed records (internal/wire binary
//     framing), batched fsync, snapshot rotation with log truncation, and
//     Open-time recovery that loads the newest valid snapshot, replays
//     the log tail and truncates a torn final record instead of failing.
//   - ShardedEngine (sharded.go) binds one Log per shard of a
//     core.Sharded to internal/core's event model, with a compact binary
//     event codec (codec.go). One shard is the default; K shards give K
//     independent logs that recover in parallel.
//   - Peer (peer.go) binds a Log to internal/peer's event model for the
//     decentralised CLI.
//
// Recovery cost is bounded by the snapshot interval, not total history:
// replay starts at the last snapshot's sequence number. Recovery is
// deterministic — replaying snapshot+tail reproduces bit-identical trust
// matrices versus the uninterrupted run (see journal_test.go).
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"mdrep/internal/obs"
	"mdrep/internal/wire"
)

// Causal-tracing span name and attribute key for recovery; keys come
// from this const table (metriclabel contract).
const (
	spanRecover  = "journal.recover"
	attrReplayed = "replayed"
)

// State is the state machine a Log makes durable. Implementations must
// make Restore atomic: decode the snapshot fully, then swap it in, so a
// corrupt snapshot leaves the state untouched and recovery can fall back
// to an older one.
type State interface {
	// Apply applies one logged event payload.
	Apply(payload []byte) error
	// Snapshot serializes the full current state.
	Snapshot() ([]byte, error)
	// Restore replaces the state with a previously serialized snapshot.
	Restore(snapshot []byte) error
}

// Config tunes durability against throughput.
type Config struct {
	// SyncEvery batches fsync: the log flushes and syncs after this many
	// appends (1 = sync every append). Sync, Snapshot and Close always
	// flush regardless.
	SyncEvery int
	// SnapshotEvery is the number of events between automatic snapshots
	// taken by the typed wrappers; 0 disables automatic snapshots.
	SnapshotEvery uint64
	// KeepSnapshots is how many snapshot generations to retain. Keeping
	// at least 2 lets recovery fall back past a corrupt newest snapshot;
	// log segments are pruned only once they precede the oldest retained
	// snapshot.
	KeepSnapshots int
	// Obs is the optional metrics observer (see NewLogObs); nil means
	// uninstrumented.
	Obs *LogObs
}

// DefaultConfig keeps two snapshot generations, snapshots every 10k
// events and syncs every 64 appends.
func DefaultConfig() Config {
	return Config{SyncEvery: 64, SnapshotEvery: 10000, KeepSnapshots: 2}
}

func (c Config) withDefaults() Config {
	if c.SyncEvery < 1 {
		c.SyncEvery = 64
	}
	if c.KeepSnapshots < 1 {
		c.KeepSnapshots = 2
	}
	return c
}

// RecoveryInfo reports what Open had to do.
type RecoveryInfo struct {
	// SnapshotSeq is the sequence number of the snapshot restored (0 if
	// recovery started from an empty state).
	SnapshotSeq uint64
	// Replayed is the number of events re-applied from the log tail.
	Replayed uint64
	// TruncatedTail reports that a torn final record was dropped.
	TruncatedTail bool
	// SnapshotFallback reports that the newest snapshot was unreadable
	// and an older generation (or empty state) was used instead.
	SnapshotFallback bool
}

var (
	walMagic  = []byte("MDWALv1\n")
	snapMagic = []byte("MDSNPv1\n")
)

const headerLen = 16 // magic + 8-byte big-endian sequence number

// Log is one directory of WAL segments and snapshots. It is not safe for
// concurrent use; its owners (ShardedEngine's per-shard mutex, Peer)
// serialise access.
type Log struct {
	dir   string
	cfg   Config
	state State

	seq      uint64 // total events appended (next event's sequence number)
	lastSnap uint64 // sequence covered by the newest snapshot

	f        *os.File
	w        *fileWriter
	unsynced int

	segStarts []uint64 // start sequence of every live segment, ascending
	snapSeqs  []uint64 // sequence of every live snapshot, ascending
}

// fileWriter is a small buffered writer that tracks flush state; bufio
// would do, but we want explicit control of the flush/sync boundary.
type fileWriter struct {
	f   *os.File
	buf []byte
}

func (w *fileWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	if len(w.buf) >= 1<<16 {
		if err := w.flush(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

func (w *fileWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.f.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

func walName(start uint64) string { return fmt.Sprintf("wal-%016x.log", start) }
func snapName(seq uint64) string  { return fmt.Sprintf("snap-%016x.snap", seq) }
func parseName(name, kind string) (uint64, bool) {
	var seq uint64
	var suffix string
	n, err := fmt.Sscanf(name, kind+"-%16x.%s", &seq, &suffix)
	if err != nil || n != 2 {
		return 0, false
	}
	return seq, true
}

// Open recovers state from dir (creating it if needed) and returns a log
// positioned for appending. The caller passes a fresh, empty state; Open
// restores the newest valid snapshot into it and replays the log tail.
func Open(dir string, cfg Config, state State) (*Log, RecoveryInfo, error) {
	cfg = cfg.withDefaults()
	if state == nil {
		return nil, RecoveryInfo{}, errors.New("journal: nil state")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("journal: %w", err)
	}
	l := &Log{dir: dir, cfg: cfg, state: state}
	sp := cfg.Obs.spanRecovery()
	// Recovery is a causal trace root of its own: crash-restart forensics
	// start from "what did recovery replay, and how long did it take".
	tsp := obs.StartRoot(spanRecover)
	info, err := l.recover()
	sp.End()
	tsp.Attr(attrReplayed, int64(info.Replayed))
	tsp.EndErr(err)
	if err != nil {
		return nil, info, err
	}
	if cfg.Obs != nil {
		cfg.Obs.replayed.Add(info.Replayed)
	}
	return l, info, nil
}

func (l *Log) scanDir() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	l.segStarts, l.snapSeqs = nil, nil
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseName(e.Name(), "wal"); ok {
			l.segStarts = append(l.segStarts, seq)
		} else if seq, ok := parseName(e.Name(), "snap"); ok {
			l.snapSeqs = append(l.snapSeqs, seq)
		}
	}
	sort.Slice(l.segStarts, func(i, j int) bool { return l.segStarts[i] < l.segStarts[j] })
	sort.Slice(l.snapSeqs, func(i, j int) bool { return l.snapSeqs[i] < l.snapSeqs[j] })
	return nil
}

// recover restores the newest valid snapshot, replays the WAL tail and
// opens the final segment for appending.
func (l *Log) recover() (RecoveryInfo, error) {
	var info RecoveryInfo
	if err := l.scanDir(); err != nil {
		return info, err
	}

	// Newest valid snapshot wins; older generations are the fallback for
	// a snapshot torn by a crash mid-write (the write is tmp+rename, but
	// disks lie) or corrupted at rest.
	for i := len(l.snapSeqs) - 1; i >= 0; i-- {
		seq := l.snapSeqs[i]
		blob, err := readSnapshotFile(filepath.Join(l.dir, snapName(seq)), seq)
		if err == nil {
			err = l.state.Restore(blob)
		}
		if err != nil {
			info.SnapshotFallback = true
			continue
		}
		l.lastSnap = seq
		info.SnapshotSeq = seq
		break
	}

	// Replay every event at or after the snapshot, in sequence order.
	cursor := l.lastSnap
	var lastPath string
	var lastGood int64
	for i, start := range l.segStarts {
		if start > cursor {
			return info, fmt.Errorf("journal: gap before segment %s (have %d events, segment starts at %d)",
				walName(start), cursor, start)
		}
		path := filepath.Join(l.dir, walName(start))
		last := i == len(l.segStarts)-1
		applied, goodOffset, truncated, err := l.replaySegment(path, start, &cursor, last)
		if err != nil {
			return info, err
		}
		info.Replayed += applied
		if truncated {
			info.TruncatedTail = true
		}
		if last {
			lastPath, lastGood = path, goodOffset
		}
	}
	l.seq = cursor

	// Position for appending: reuse the final segment (after truncating
	// any torn tail) or start a fresh one.
	if lastPath != "" && lastGood >= int64(wire.RecordSize(headerLen)) {
		if info.TruncatedTail {
			if err := os.Truncate(lastPath, lastGood); err != nil {
				return info, fmt.Errorf("journal: truncate torn tail: %w", err)
			}
		}
		f, err := os.OpenFile(lastPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return info, fmt.Errorf("journal: %w", err)
		}
		l.f, l.w = f, &fileWriter{f: f}
		return info, nil
	}
	if lastPath != "" {
		// The final segment does not even contain a whole header —
		// created and torn before anything durable landed. Drop it.
		_ = os.Remove(lastPath)
		l.segStarts = l.segStarts[:len(l.segStarts)-1]
	}
	if err := l.startSegment(l.seq); err != nil {
		return info, err
	}
	return info, nil
}

// replaySegment reads one segment, applying events with sequence numbers
// >= *cursor and advancing the cursor. It returns the number of events
// applied, the byte offset just past the last intact record, and whether
// a torn tail was detected. Torn or corrupt records are tolerated only in
// the final segment; anywhere else they are unrecoverable corruption.
func (l *Log) replaySegment(path string, start uint64, cursor *uint64, last bool) (uint64, int64, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("journal: %w", err)
	}
	defer func() { _ = f.Close() }()
	r := &bufReader{r: f}

	var applied uint64
	var good int64
	hdr, err := wire.ReadRecord(r)
	if err != nil || len(hdr) != headerLen || string(hdr[:8]) != string(walMagic) ||
		binary.BigEndian.Uint64(hdr[8:]) != start {
		if last {
			// Torn before the header completed: the segment holds nothing.
			return 0, 0, true, nil
		}
		return 0, 0, false, fmt.Errorf("journal: segment %s: bad header", filepath.Base(path))
	}
	good = int64(wire.RecordSize(headerLen))

	seq := start
	for {
		payload, err := wire.ReadRecord(r)
		if err == io.EOF {
			return applied, good, false, nil
		}
		if err != nil {
			if last && isTornOrCorrupt(err) {
				return applied, good, true, nil
			}
			return applied, good, false, fmt.Errorf("journal: segment %s: %w", filepath.Base(path), err)
		}
		if seq >= *cursor {
			if err := l.state.Apply(payload); err != nil {
				return applied, good, false, fmt.Errorf("journal: replay event %d: %w", seq, err)
			}
			*cursor = seq + 1
			applied++
		}
		seq++
		good += int64(wire.RecordSize(len(payload)))
	}
}

// isTornOrCorrupt reports whether a record read error is the signature of
// a crash mid-write (or bit rot) rather than an I/O failure.
func isTornOrCorrupt(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, wire.ErrChecksum) ||
		errors.Is(err, wire.ErrRecordTooLarge)
}

// bufReader is a minimal buffered reader; bufio.Reader would work, but
// this keeps the dependency surface of the recovery path tiny and easy to
// audit.
type bufReader struct {
	r   io.Reader
	buf []byte
	off int
	eof bool
}

func (b *bufReader) Read(p []byte) (int, error) {
	if b.off >= len(b.buf) {
		if b.eof {
			return 0, io.EOF
		}
		if cap(b.buf) == 0 {
			b.buf = make([]byte, 0, 1<<16)
		}
		n, err := b.r.Read(b.buf[:cap(b.buf)])
		b.buf, b.off = b.buf[:n], 0
		if err == io.EOF {
			b.eof = true
		} else if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, io.EOF
		}
	}
	n := copy(p, b.buf[b.off:])
	b.off += n
	return n, nil
}

// startSegment creates and syncs a fresh segment beginning at seq.
func (l *Log) startSegment(seq uint64) error {
	path := filepath.Join(l.dir, walName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	hdr := make([]byte, headerLen)
	copy(hdr, walMagic)
	binary.BigEndian.PutUint64(hdr[8:], seq)
	w := &fileWriter{f: f}
	if err := wire.WriteRecord(w, hdr); err != nil {
		_ = f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := w.flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	l.f, l.w = f, w
	if n := len(l.segStarts); n == 0 || l.segStarts[n-1] != seq {
		l.segStarts = append(l.segStarts, seq)
	}
	return syncDir(l.dir)
}

// Append writes one event payload to the log. The write becomes durable
// at the next batched fsync (SyncEvery), or immediately via Sync.
func (l *Log) Append(payload []byte) error {
	if l.f == nil {
		return errors.New("journal: log is closed")
	}
	sp := l.cfg.Obs.spanAppend()
	defer sp.End()
	if err := wire.WriteRecord(l.w, payload); err != nil {
		return err
	}
	l.seq++
	l.unsynced++
	if l.cfg.Obs != nil {
		l.cfg.Obs.appends.Inc()
	}
	if l.unsynced >= l.cfg.SyncEvery {
		return l.Sync()
	}
	return nil
}

// Sync flushes buffered appends and fsyncs the active segment.
func (l *Log) Sync() error {
	if l.f == nil {
		return errors.New("journal: log is closed")
	}
	if err := l.w.flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.unsynced = 0
	if l.cfg.Obs != nil {
		l.cfg.Obs.fsyncs.Inc()
	}
	return nil
}

// Seq returns the total number of events appended across the log's life.
func (l *Log) Seq() uint64 { return l.seq }

// SinceSnapshot returns how many events the newest snapshot does not
// cover — the replay cost of a crash right now.
func (l *Log) SinceSnapshot() uint64 { return l.seq - l.lastSnap }

// SnapshotDue reports whether the automatic snapshot interval has passed.
func (l *Log) SnapshotDue() bool {
	return l.cfg.SnapshotEvery > 0 && l.SinceSnapshot() >= l.cfg.SnapshotEvery
}

// Snapshot serializes the current state, writes it as a new snapshot
// generation, rotates to a fresh log segment and prunes snapshots and
// segments that are no longer needed for recovery. A crash at any point
// is safe: the snapshot lands under a temporary name and is renamed into
// place only when fully written and synced.
func (l *Log) Snapshot() error {
	if l.f == nil {
		return errors.New("journal: log is closed")
	}
	if l.seq == l.lastSnap {
		return nil // nothing new to cover
	}
	if err := l.Sync(); err != nil {
		return err
	}
	blob, err := l.state.Snapshot()
	if err != nil {
		return fmt.Errorf("journal: snapshot state: %w", err)
	}
	payload := make([]byte, headerLen+len(blob))
	copy(payload, snapMagic)
	binary.BigEndian.PutUint64(payload[8:headerLen], l.seq)
	copy(payload[headerLen:], blob)
	if l.cfg.Obs != nil {
		l.cfg.Obs.snapshots.Inc()
		l.cfg.Obs.snapBytes.Observe(float64(len(payload)))
	}

	tmp := filepath.Join(l.dir, "snap.tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w := &fileWriter{f: f}
	if err := wire.WriteRecord(w, payload); err == nil {
		err = w.flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("journal: write snapshot: %w", err)
	}
	final := filepath.Join(l.dir, snapName(l.seq))
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("journal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.snapSeqs = append(l.snapSeqs, l.seq)
	l.lastSnap = l.seq

	// Rotate: later appends land in a segment starting at the snapshot
	// boundary, so recovery from this snapshot reads exactly one segment.
	if err := l.f.Close(); err != nil {
		return err
	}
	if err := l.startSegment(l.seq); err != nil {
		return err
	}
	l.prune()
	return nil
}

// prune removes snapshot generations beyond KeepSnapshots and every
// segment whose events all precede the oldest retained snapshot.
func (l *Log) prune() {
	if len(l.snapSeqs) > l.cfg.KeepSnapshots {
		drop := l.snapSeqs[:len(l.snapSeqs)-l.cfg.KeepSnapshots]
		for _, seq := range drop {
			_ = os.Remove(filepath.Join(l.dir, snapName(seq)))
		}
		l.snapSeqs = append([]uint64(nil), l.snapSeqs[len(drop):]...)
	}
	oldest := l.snapSeqs[0]
	// Segment i spans [segStarts[i], segStarts[i+1]); only a segment that
	// ends at or before the oldest snapshot is dead weight.
	keepFrom := 0
	for i := 0; i+1 < len(l.segStarts); i++ {
		if l.segStarts[i+1] <= oldest {
			_ = os.Remove(filepath.Join(l.dir, walName(l.segStarts[i])))
			keepFrom = i + 1
		}
	}
	if keepFrom > 0 {
		l.segStarts = append([]uint64(nil), l.segStarts[keepFrom:]...)
	}
}

// Close flushes and closes the log. It does not snapshot; callers that
// want a snapshot-on-shutdown (the CLI does) call Snapshot first.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f, l.w = nil, nil
	return err
}

// readSnapshotFile loads and validates one snapshot generation.
func readSnapshotFile(path string, wantSeq uint64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	payload, err := wire.ReadRecord(&bufReader{r: f})
	if err != nil {
		return nil, err
	}
	if len(payload) < headerLen || string(payload[:8]) != string(snapMagic) {
		return nil, errors.New("journal: bad snapshot header")
	}
	if got := binary.BigEndian.Uint64(payload[8:headerLen]); got != wantSeq {
		return nil, fmt.Errorf("journal: snapshot sequence %d, file named %d", got, wantSeq)
	}
	return payload[headerLen:], nil
}

// syncDir fsyncs a directory so renames and creations survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // not fatal on platforms without directory fsync
	}
	defer func() { _ = d.Close() }()
	_ = d.Sync()
	return nil
}
