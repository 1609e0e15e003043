package journal

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/fault"
	"mdrep/internal/identity"
	"mdrep/internal/obs"
	"mdrep/internal/peer"
)

// stubNet satisfies peer.Network for tests that never hit the wire.
type stubNet struct{}

func (stubNet) FetchEvaluations(obs.SpanContext, identity.PeerID) ([]eval.Info, error) {
	return nil, nil
}

func newTestPeer(t *testing.T, seed uint64) *peer.Peer {
	t.Helper()
	id, err := identity.Generate(identity.NewDeterministicReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	dir := identity.NewDirectory()
	if _, err := dir.Register(id.PublicKey()); err != nil {
		t.Fatal(err)
	}
	p, err := peer.New(id, dir, stubNet{}, peer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func otherID(t *testing.T, seed uint64) identity.PeerID {
	t.Helper()
	id, err := identity.Generate(identity.NewDeterministicReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	return id.ID()
}

// TestPeerJournalRoundTrip: a CLI participant's votes, downloads, ratings
// and blacklist survive a restart from its data dir.
func TestPeerJournalRoundTrip(t *testing.T) {
	dataDir := t.TempDir()
	target := otherID(t, 99)
	banned := otherID(t, 100)

	jp, info, err := OpenPeer(dataDir, newTestPeer(t, 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 0 || info.SnapshotSeq != 0 {
		t.Fatalf("fresh dir recovery = %+v", info)
	}
	steps := []func() error{
		func() error { return jp.AdvanceTo(2 * time.Hour) },
		func() error { return jp.Vote("file-a", 0.9) },
		func() error { return jp.ObserveRetention("file-b", 0.7) },
		func() error { return jp.RecordDownload(target, "file-a", 1<<20) },
		func() error { return jp.RateUser(target, 0.8) },
		func() error { return jp.Blacklist(banned) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	want := jp.Base().ExportState()
	if err := jp.Close(); err != nil {
		t.Fatal(err)
	}

	restored, info, err := OpenPeer(dataDir, newTestPeer(t, 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != uint64(len(steps)) || info.Replayed != 0 {
		t.Fatalf("clean-shutdown recovery = %+v", info)
	}
	if got := restored.Base().ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state diverged:\n got %+v\nwant %+v", got, want)
	}
	if !restored.Base().IsBlacklisted(banned) {
		t.Fatal("blacklist entry lost across restart")
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPeerJournalRefusesSelfRating: a self-rating fails terminally and
// journals nothing, so a crash right after it replays nothing.
func TestPeerJournalRefusesSelfRating(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{SyncEvery: 1, SnapshotEvery: 0}
	jp, _, err := OpenPeer(dataDir, newTestPeer(t, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := jp.RateUser(jp.Base().ID(), 1); !fault.IsTerminal(err) {
		t.Fatalf("self-rating: err = %v, want fault.Terminal", err)
	}
	if err := jp.Sync(); err != nil {
		t.Fatal(err)
	}
	restored, info, err := OpenPeer(dataDir, newTestPeer(t, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 0 {
		t.Fatalf("replayed %d events, want 0: the refused rating was journaled", info.Replayed)
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
}

// legacyState writes a peer journal the way a binary that accepted
// self-ratings did: events are appended verbatim and the snapshot is st.
type legacyState struct{ st peer.State }

func (legacyState) Apply([]byte) error          { return nil }
func (s legacyState) Snapshot() ([]byte, error) { return json.Marshal(s.st) }
func (legacyState) Restore([]byte) error        { return nil }

// TestPeerRecoversDroppingSelfRating: a journal written before
// self-ratings were refused may hold one, in a WAL event or in a
// snapshot. Recovery succeeds, drops the self-rating and keeps the rest.
func TestPeerRecoversDroppingSelfRating(t *testing.T) {
	self := newTestPeer(t, 3).ID()
	other := otherID(t, 99)
	want := map[identity.PeerID]float64{other: 0.7}
	for _, fromSnapshot := range []bool{false, true} {
		dataDir := t.TempDir()
		legacy := legacyState{st: peer.State{Ratings: map[identity.PeerID]float64{other: 0.7, self: 1}}}
		log, _, err := Open(dataDir, Config{SyncEvery: 1}, legacy)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range []peer.Event{
			{Kind: peer.EventRateUser, Target: other, Value: 0.7},
			{Kind: peer.EventRateUser, Target: self, Value: 1},
		} {
			payload, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			if err := log.Append(payload); err != nil {
				t.Fatal(err)
			}
		}
		if fromSnapshot {
			if err := log.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}

		jp, info, err := OpenPeer(dataDir, newTestPeer(t, 3), Config{SyncEvery: 1})
		if err != nil {
			t.Fatalf("snapshot=%v: recovery failed: %v", fromSnapshot, err)
		}
		if fromSnapshot != (info.SnapshotSeq == 2) {
			t.Fatalf("snapshot=%v: recovery = %+v", fromSnapshot, info)
		}
		if got := jp.Base().ExportState().Ratings; !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot=%v: ratings %v, want %v", fromSnapshot, got, want)
		}
		if v, ok := jp.Base().TrustRow()[self]; ok {
			t.Fatalf("snapshot=%v: recovered peer trusts itself %v", fromSnapshot, v)
		}
		if err := jp.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPeerJournalCrash: a flushed-but-not-closed journal replays the tail.
func TestPeerJournalCrash(t *testing.T) {
	dataDir := t.TempDir()
	jp, _, err := OpenPeer(dataDir, newTestPeer(t, 2), Config{SyncEvery: 1, SnapshotEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := jp.AdvanceTo(time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := jp.Vote("crash-file", 0.6); err != nil {
		t.Fatal(err)
	}
	want := jp.Base().ExportState()
	// Crash: no Close, no snapshot — state must come back from the WAL.
	restored, info, err := OpenPeer(dataDir, newTestPeer(t, 2), Config{SyncEvery: 1, SnapshotEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 2 {
		t.Fatalf("replayed %d events, want 2", info.Replayed)
	}
	if got := restored.Base().ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state diverged:\n got %+v\nwant %+v", got, want)
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPeerFlagsNotPersisted: examiner flags, like synced lists, are a
// cache of what the network showed, so nothing durable may depend on
// them. A peer that flags a mimic and blacklists another peer must
// recover the same state from a crash (Sync, drop, reopen) as from a
// clean shutdown (Close, reopen). Both keep the user's blacklist and the
// rating the flag left untouched.
func TestPeerFlagsNotPersisted(t *testing.T) {
	banned := otherID(t, 100)
	mimic, err := identity.Generate(identity.NewDeterministicReader(7777))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SyncEvery: 1, SnapshotEvery: 0}
	// examined builds the journaled peer with a network on which the
	// mimic serves validly signed lists that it rewrites wholesale when
	// phase changes.
	examined := func(phase *int) *peer.Peer {
		id, err := identity.Generate(identity.NewDeterministicReader(3))
		if err != nil {
			t.Fatal(err)
		}
		dir := identity.NewDirectory()
		for _, who := range []*identity.Identity{id, mimic} {
			if _, err := dir.Register(who.PublicKey()); err != nil {
				t.Fatal(err)
			}
		}
		ex := peer.NewExchange()
		ex.RegisterFunc(mimic.ID(), func() ([]eval.Info, error) {
			vals := []float64{0.95, 0.05}
			var out []eval.Info
			for _, f := range []eval.FileID{"m1", "m2"} {
				in := eval.Info{FileID: f, OwnerID: mimic.ID(), Evaluation: vals[*phase], Timestamp: time.Duration(*phase)}
				if err := in.Sign(mimic); err != nil {
					return nil, err
				}
				out = append(out, in)
			}
			return out, nil
		})
		pcfg := peer.DefaultConfig()
		pcfg.ExaminerMinOverlap = 2
		p, err := peer.New(id, dir, ex, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	recovered := func(crash bool) *peer.State {
		dataDir := t.TempDir()
		phase := 0
		jp, _, err := OpenPeer(dataDir, examined(&phase), cfg)
		if err != nil {
			t.Fatal(err)
		}
		steps := []func() error{
			func() error { return jp.Vote("m1", 0.9) },
			func() error { return jp.RateUser(mimic.ID(), 0.8) },
			func() error { return jp.RecordDownload(mimic.ID(), "m1", 1<<20) },
			func() error { return jp.Blacklist(banned) },
		}
		for i, step := range steps {
			if err := step(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if _, err := jp.Base().SyncPeer(mimic.ID()); err != nil {
			t.Fatal(err)
		}
		phase = 1
		if _, err := jp.Base().SyncPeer(mimic.ID()); err == nil {
			t.Fatal("mimic not flagged")
		}
		if !jp.Base().IsBlacklisted(mimic.ID()) {
			t.Fatal("flagged mimic not reported")
		}
		if crash {
			err = jp.Sync()
		} else {
			err = jp.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		restored, _, err := OpenPeer(dataDir, examined(new(int)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer restored.Close()
		if !restored.Base().IsBlacklisted(banned) {
			t.Fatal("user blacklist lost across restart")
		}
		return restored.Base().ExportState()
	}
	crashed, closed := recovered(true), recovered(false)
	if !reflect.DeepEqual(crashed, closed) {
		t.Fatalf("crash and clean shutdown recover different states:\ncrash %+v\nclose %+v", crashed, closed)
	}
	if !reflect.DeepEqual(closed.Banned, []identity.PeerID{banned}) || closed.Ratings[mimic.ID()] != 0.8 {
		t.Fatalf("recovered blacklist %v and ratings %v, want only the user's ban and the mimic's rating", closed.Banned, closed.Ratings)
	}
}
