package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mdrep/internal/core"
)

// tailProperty exhaustively damages the WAL and asserts the recovery
// contract at byte granularity: whatever happens to the tail of the log,
// recovery lands on the longest prefix of intact events, bit-identical
// to an uninterrupted run over that prefix. It covers both damage modes
// the crash model produces — a short write (truncation at an arbitrary
// byte offset) and a corrupted sector (bit flip at an arbitrary offset
// inside the final record).
type tailProperty struct {
	n       int
	events  []core.Event
	raw     []byte         // the pristine single-segment WAL
	segName string         // file name the segment must keep
	bounds  []int64        // bounds[k] = segment size after k events
	want    []*core.Engine // want[k] = ground truth for events[:k]
	jcfg    Config
}

func buildTailProperty(t *testing.T, n, count int) *tailProperty {
	t.Helper()
	p := &tailProperty{
		n:      n,
		events: genEvents(n, count),
		jcfg:   Config{SyncEvery: 1, SnapshotEvery: 0, KeepSnapshots: 2},
	}
	dir := t.TempDir()
	je, _, err := openOne(dir, n, testConfig(), p.jcfg)
	if err != nil {
		t.Fatal(err)
	}
	segs := listFiles(t, shard0(dir), "wal-")
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want 1", segs)
	}
	p.segName = segs[0]
	seg := filepath.Join(shard0(dir), p.segName)
	size := func() int64 {
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	// Record the segment size after every appended event so a damage
	// offset maps to an expected intact-prefix length without knowing
	// the codec's framing.
	p.bounds = append(p.bounds, size())
	for _, ev := range p.events {
		applyToJournal(t, je, ev)
		if err := je.Sync(); err != nil {
			t.Fatal(err)
		}
		p.bounds = append(p.bounds, size())
	}
	if p.raw, err = os.ReadFile(seg); err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= len(p.events); k++ {
		p.want = append(p.want, buildUninterrupted(t, n, p.events[:k]))
	}
	return p
}

// intactPrefix maps a damage offset to the number of whole events that
// precede it in the segment.
func (p *tailProperty) intactPrefix(off int64) int {
	k := 0
	for k+1 < len(p.bounds) && p.bounds[k+1] <= off {
		k++
	}
	return k
}

// recoverFrom writes the damaged segment into a fresh directory's shard
// log, opens the engine, and asserts it equals the uninterrupted run
// over the expected prefix.
func (p *tailProperty) recoverFrom(t *testing.T, damaged []byte, wantReplayed int, label string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(shard0(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shard0(dir), p.segName), damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, info, err := openOne(dir, p.n, testConfig(), p.jcfg)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	if info.Replayed != uint64(wantReplayed) {
		t.Fatalf("%s: replayed %d events, want %d", label, info.Replayed, wantReplayed)
	}
	checkEnginesIdentical(t, p.want[wantReplayed], recovered.Core(), time.Duration(len(p.events)+1)*time.Minute)
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALTruncationAtEveryByteOffset chops the log at every possible
// byte length, from an empty file up to one byte short of intact.
func TestWALTruncationAtEveryByteOffset(t *testing.T) {
	p := buildTailProperty(t, 8, 30)
	for off := int64(0); off < int64(len(p.raw)); off++ {
		p.recoverFrom(t, p.raw[:off], p.intactPrefix(off), fmt.Sprintf("truncate@%d", off))
	}
}

// TestWALBitFlipInFinalRecord flips one bit at every byte offset of the
// final record: header, payload or checksum, the damaged record must be
// discarded and recovery must stop at the previous event.
func TestWALBitFlipInFinalRecord(t *testing.T) {
	p := buildTailProperty(t, 8, 30)
	last := len(p.events)
	start, end := p.bounds[last-1], p.bounds[last]
	for off := start; off < end; off++ {
		damaged := append([]byte(nil), p.raw...)
		damaged[off] ^= 1 << (uint(off) % 8)
		p.recoverFrom(t, damaged, last-1, fmt.Sprintf("bitflip@%d", off))
	}
}
