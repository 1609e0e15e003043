package main

import (
	"math"
	"testing"

	"mdrep/internal/eval"
	"mdrep/internal/identity"
	"mdrep/internal/peer"
)

func newTestDirectory() *identity.Directory { return identity.NewDirectory() }

func TestParseVotes(t *testing.T) {
	got, err := parseVotes("a=0.9,b=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || math.Abs(got["a"]-0.9) > 1e-12 || math.Abs(got["b"]-0.1) > 1e-12 {
		t.Fatalf("parseVotes = %v", got)
	}
	if got, err := parseVotes(""); err != nil || len(got) != 0 {
		t.Fatalf("empty spec: %v, %v", got, err)
	}
	for _, bad := range []string{"a", "a=x", "=0.5,", "a=NaN", "a=0.5,b=nan"} {
		if _, err := parseVotes(bad); err == nil {
			t.Fatalf("malformed spec %q accepted", bad)
		}
	}
}

func TestRunUnknownSubcommand(t *testing.T) {
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run(nil); err == nil {
		t.Fatal("missing subcommand accepted")
	}
}

func TestTrustRequiresSync(t *testing.T) {
	if err := trust([]string{"-seed", "2"}); err == nil {
		t.Fatal("trust without -sync accepted")
	}
}

func newCLIPeer(t *testing.T, seed uint64) *peer.Peer {
	t.Helper()
	dir := newTestDirectory()
	id, err := makeIdentity(seed, dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := peer.New(id, dir, peer.NewTCPExchange(peer.NewStaticResolver()), peer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDataDirPersistsVotes mirrors what serve/trust do with -data-dir:
// votes recorded in one run survive into the next run's peer state.
func TestDataDirPersistsVotes(t *testing.T) {
	dataDir := t.TempDir()

	jp, err := openJournal(dataDir, newCLIPeer(t, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	if jp == nil {
		t.Fatal("openJournal returned nil for a non-empty data dir")
	}
	votes := map[eval.FileID]float64{"a": 0.9, "b": 0.1}
	if err := applyVotes(jp.Base(), jp, votes); err != nil {
		t.Fatal(err)
	}
	if err := jp.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := openJournal(dataDir, newCLIPeer(t, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := restored.Base().ExportState()
	for f, want := range votes {
		rec, ok := got.Records[f]
		if !ok || !rec.Voted || math.Abs(rec.Explicit-want) > 1e-12 {
			t.Fatalf("vote on %q not restored: %+v", f, got.Records[f])
		}
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenJournalDisabled(t *testing.T) {
	jp, err := openJournal("", newCLIPeer(t, 8), nil)
	if err != nil || jp != nil {
		t.Fatalf("empty data dir should disable persistence: %v, %v", jp, err)
	}
	// applyVotes must fall back to direct application.
	p := newCLIPeer(t, 9)
	if err := applyVotes(p, nil, map[eval.FileID]float64{"x": 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.ExportState().Records["x"]; !ok {
		t.Fatal("direct vote not applied")
	}
}

func TestMakeIdentityDeterministic(t *testing.T) {
	dirA := newTestDirectory()
	a, err := makeIdentity(5, dirA)
	if err != nil {
		t.Fatal(err)
	}
	dirB := newTestDirectory()
	b, err := makeIdentity(5, dirB)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != b.ID() {
		t.Fatal("identities not deterministic")
	}
}

// TestEngineSubcommand drives the sharded journal-backed engine through
// ingest, crash, recovery and clean close against one data directory.
func TestEngineSubcommand(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"engine"}); err == nil {
		t.Fatal("missing -data-dir accepted")
	}
	base := []string{"engine", "-data-dir", dir, "-n", "32", "-shards", "4", "-events", "120", "-batch", "32"}
	if err := run(append(base, "-crash")); err != nil {
		t.Fatal(err)
	}
	// Crash recovery: everything was group-committed, so the second run
	// must replay all 120 events and then close cleanly.
	if err := run(base); err != nil {
		t.Fatal(err)
	}
	// Clean close left snapshots; a shard-count change must be rejected.
	if err := run([]string{"engine", "-data-dir", dir, "-n", "32", "-shards", "8"}); err == nil {
		t.Fatal("shard count change accepted")
	}
	if err := run(append(base, "-metrics-addr", "127.0.0.1:0")); err != nil {
		t.Fatal(err)
	}
}
