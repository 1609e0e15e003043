package peer

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/fault"
	"mdrep/internal/identity"
)

// testnet builds n peers on a shared exchange and PKI directory.
func testnet(t *testing.T, n int, cfg Config) ([]*Peer, *Exchange, *Directory) {
	t.Helper()
	dir := identity.NewDirectory()
	ex := NewExchange()
	peers := make([]*Peer, 0, n)
	for i := 0; i < n; i++ {
		id, err := identity.Generate(identity.NewDeterministicReader(uint64(1000 + i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dir.Register(id.PublicKey()); err != nil {
			t.Fatal(err)
		}
		p, err := New(id, dir, ex, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ex.Register(p)
		peers = append(peers, p)
	}
	return peers, ex, dir
}

func TestNewValidation(t *testing.T) {
	id, err := identity.Generate(identity.NewDeterministicReader(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := identity.NewDirectory()
	ex := NewExchange()
	if _, err := New(nil, dir, ex, DefaultConfig()); err == nil {
		t.Fatal("nil identity accepted")
	}
	if _, err := New(id, nil, ex, DefaultConfig()); err == nil {
		t.Fatal("nil directory accepted")
	}
	if _, err := New(id, dir, nil, DefaultConfig()); err == nil {
		t.Fatal("nil network accepted")
	}
	bad := DefaultConfig()
	bad.Reputation.Steps = 0
	if _, err := New(id, dir, ex, bad); err == nil {
		t.Fatal("invalid reputation config accepted")
	}
}

func TestSignedEvaluationsVerify(t *testing.T) {
	peers, _, dir := testnet(t, 1, DefaultConfig())
	p := peers[0]
	p.AdvanceTo(time.Hour)
	p.Vote("a", 0.8)
	p.ObserveRetention("b", 10*24*time.Hour, false)
	infos, err := p.SignedEvaluations()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("signed %d evaluations", len(infos))
	}
	for _, in := range infos {
		if err := in.Verify(dir); err != nil {
			t.Fatalf("own evaluation fails verification: %v", err)
		}
	}
}

func TestSyncPeerBuildsFileTrust(t *testing.T) {
	peers, _, _ := testnet(t, 2, DefaultConfig())
	a, b := peers[0], peers[1]
	// Same opinions on two files.
	for _, p := range peers {
		p.Vote("x", 0.9)
		p.Vote("y", 0.2)
	}
	n, err := a.SyncPeer(b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("synced %d entries", n)
	}
	row := a.TrustRow()
	if row[b.ID()] <= 0 {
		t.Fatalf("no trust after agreeing history: %v", row)
	}
}

func TestSyncPeerSelfRejected(t *testing.T) {
	peers, _, _ := testnet(t, 1, DefaultConfig())
	if _, err := peers[0].SyncPeer(peers[0].ID()); err == nil {
		t.Fatal("self-sync accepted")
	}
}

func TestSyncPeerDropsForgedEntries(t *testing.T) {
	peers, ex, _ := testnet(t, 2, DefaultConfig())
	a, b := peers[0], peers[1]
	b.Vote("x", 0.9)
	// A man-in-the-middle serves b's list with one tampered and one
	// honestly signed entry.
	ex.RegisterFunc(b.ID(), func() ([]eval.Info, error) {
		infos, err := b.SignedEvaluations()
		if err != nil {
			return nil, err
		}
		forged := infos[0]
		forged.FileID = "evil"
		return append(infos, forged), nil
	})
	n, err := a.SyncPeer(b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("accepted %d entries, want only the honestly signed one", n)
	}
}

func TestTrustRowDimensions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reputation.Blend = eval.Blend{Eta: 0, Rho: 1}
	peers, _, _ := testnet(t, 4, cfg)
	a, b, c, d := peers[0], peers[1], peers[2], peers[3]

	// FM evidence: a and b agree.
	a.Vote("x", 0.9)
	b.Vote("x", 0.9)
	if _, err := a.SyncPeer(b.ID()); err != nil {
		t.Fatal(err)
	}
	// DM evidence: a downloaded a good file from c.
	if err := a.RecordDownload(c.ID(), "dl", 1000); err != nil {
		t.Fatal(err)
	}
	a.Vote("dl", 1.0)
	// UM evidence: a rates d.
	if err := a.RateUser(d.ID(), 0.7); err != nil {
		t.Fatal(err)
	}

	row := a.TrustRow()
	for _, target := range []*Peer{b, c, d} {
		if row[target.ID()] <= 0 {
			t.Fatalf("dimension missing for %s: %v", target.ID(), row)
		}
	}
	// All three dimensions have one entry each, so the row must sum to
	// α+β+γ = 1.
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("trust row sums to %v", sum)
	}
}

// TestBlacklistZeroesUserTrust: a blacklist zeroes UT for good and
// leaves the other dimensions alone (§3.1.3, as in core). b agrees with
// a on every shared file and is rated 1, so a's row gives b α·1 + γ·1;
// after the blacklist only the α·FM share is left, and a later rating
// does not bring the UT share back.
func TestBlacklistZeroesUserTrust(t *testing.T) {
	peers, _, _ := testnet(t, 2, DefaultConfig())
	a, b := peers[0], peers[1]
	a.Vote("x", 0.9)
	b.Vote("x", 0.9)
	if _, err := a.SyncPeer(b.ID()); err != nil {
		t.Fatal(err)
	}
	if err := a.RateUser(b.ID(), 1.0); err != nil {
		t.Fatal(err)
	}
	alpha := a.cfg.Reputation.Alpha
	if got, want := a.TrustRow()[b.ID()], alpha+a.cfg.Reputation.Gamma; got != want {
		t.Fatalf("trust before the blacklist = %v, want α+γ = %v", got, want)
	}
	a.Blacklist(b.ID())
	if got := a.TrustRow()[b.ID()]; got != alpha {
		t.Fatalf("blacklisted peer has trust %v, want its α·FM share %v", got, alpha)
	}
	if err := a.RateUser(b.ID(), 1.0); err != nil {
		t.Fatal(err)
	}
	if got := a.TrustRow()[b.ID()]; got != alpha {
		t.Fatalf("post-blacklist rating moved trust to %v, want %v", got, alpha)
	}
	if !a.IsBlacklisted(b.ID()) {
		t.Fatal("blacklist not reported")
	}
}

func TestJudgeFileEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reputation.Blend = eval.Blend{Eta: 0, Rho: 1}
	peers, _, _ := testnet(t, 3, cfg)
	a, friend, liar := peers[0], peers[1], peers[2]
	// a trusts friend (agreeing history), not liar.
	a.Vote("h1", 0.9)
	friend.Vote("h1", 0.95)
	liar.Vote("h1", 0.05)
	for _, other := range []*Peer{friend, liar} {
		if _, err := a.SyncPeer(other.ID()); err != nil {
			t.Fatal(err)
		}
	}
	// The file's DHT records: friend says fake, liar promotes.
	friend.Vote("newfile", 0.05)
	liar.Vote("newfile", 1.0)
	var records []eval.Info
	for _, other := range []*Peer{friend, liar} {
		infos, err := other.SignedEvaluations()
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range infos {
			if in.FileID == "newfile" {
				records = append(records, in)
			}
		}
	}
	j, err := a.JudgeFile(records)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Known || !j.Fake {
		t.Fatalf("fake not identified: %+v", j)
	}
}

// TestJudgeFileBitReproducible judges the same records 50 times and
// expects one R_f bit pattern: every float sum behind TrustRow must run
// in a fixed order, never in map order.
func TestJudgeFileBitReproducible(t *testing.T) {
	const owners, files, perOwner = 32, 256, 48
	peers, _, _ := testnet(t, owners+1, DefaultConfig())
	judge := peers[0]
	file := func(f int) eval.FileID { return eval.FileID(fmt.Sprintf("file-%03d", f)) }
	for f := 0; f < files; f++ {
		judge.Vote(file(f), float64(f*37%101)/100)
	}
	var records []eval.Info
	for o, p := range peers[1:] {
		for k := 0; k < perOwner; k++ {
			f := (o*7 + k*5) % files
			p.Vote(file(f), float64((o*13+f*29)%103)/102)
		}
		p.Vote("target", float64(o%10)/9)
		if _, err := judge.SyncPeer(p.ID()); err != nil {
			t.Fatal(err)
		}
		infos, err := p.SignedEvaluations()
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range infos {
			if in.FileID == "target" {
				records = append(records, in)
			}
		}
	}
	seen := make(map[uint64]int)
	for i := 0; i < 50; i++ {
		j, err := judge.JudgeFile(records)
		if err != nil {
			t.Fatal(err)
		}
		if !j.Known {
			t.Fatalf("judgement %d: no verdict from %d records", i, len(records))
		}
		seen[math.Float64bits(j.Reputation)]++
	}
	if len(seen) != 1 {
		t.Fatalf("50 judgements of the same records gave %d R_f bit patterns: %v", len(seen), seen)
	}
}

func TestJudgeFileIgnoresForgedRecords(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reputation.Blend = eval.Blend{Eta: 0, Rho: 1} // votes carry full weight
	peers, _, _ := testnet(t, 2, cfg)
	a, b := peers[0], peers[1]
	a.Vote("h", 0.9)
	b.Vote("h", 0.9)
	if _, err := a.SyncPeer(b.ID()); err != nil {
		t.Fatal(err)
	}
	b.Vote("f", 0.9)
	infos, err := b.SignedEvaluations()
	if err != nil {
		t.Fatal(err)
	}
	var rec eval.Info
	for _, in := range infos {
		if in.FileID == "f" {
			rec = in
		}
	}
	forged := rec
	forged.Evaluation = 0.0 // tampered: signature now invalid
	j, err := a.JudgeFile([]eval.Info{forged, rec})
	if err != nil {
		t.Fatal(err)
	}
	if !j.Known || j.Fake {
		t.Fatalf("forged record influenced judgement: %+v", j)
	}
	if math.Abs(j.Reputation-0.9) > 1e-9 {
		t.Fatalf("R_f = %v, want 0.9 from the genuine record alone", j.Reputation)
	}
}

func TestJudgeFileUnknownWithoutTrust(t *testing.T) {
	peers, _, _ := testnet(t, 2, DefaultConfig())
	a, b := peers[0], peers[1]
	b.Vote("f", 0.9)
	infos, err := b.SignedEvaluations()
	if err != nil {
		t.Fatal(err)
	}
	j, err := a.JudgeFile(infos)
	if err != nil {
		t.Fatal(err)
	}
	if j.Known {
		t.Fatalf("judgement from untrusted evaluator: %+v", j)
	}
}

func TestExaminerFlagsMimicAndBans(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExaminerMinOverlap = 2
	peers, ex, _ := testnet(t, 2, cfg)
	a := peers[0]
	mimicID, err := identity.Generate(identity.NewDeterministicReader(7777))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.dir.Register(mimicID.PublicKey()); err != nil {
		t.Fatal(err)
	}
	// The mimic signs whatever list it currently wants to present —
	// valid signatures, inconsistent content.
	phase := 0
	ex.RegisterFunc(mimicID.ID(), func() ([]eval.Info, error) {
		vals := []float64{0.95, 0.05}
		out := make([]eval.Info, 0, 2)
		for _, f := range []eval.FileID{"m1", "m2"} {
			in := eval.Info{FileID: f, OwnerID: mimicID.ID(), Evaluation: vals[phase], Timestamp: time.Duration(phase)}
			if err := in.Sign(mimicID); err != nil {
				return nil, err
			}
			out = append(out, in)
		}
		return out, nil
	})
	if _, err := a.SyncPeer(mimicID.ID()); err != nil {
		t.Fatal(err)
	}
	// Evidence in every dimension: a agrees with the first list, rated
	// the mimic and downloaded from it.
	a.Vote("m1", 0.95)
	if err := a.RateUser(mimicID.ID(), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.RecordDownload(mimicID.ID(), "m1", 1000); err != nil {
		t.Fatal(err)
	}
	if a.TrustRow()[mimicID.ID()] <= 0 {
		t.Fatal("no trust in the mimic before the flag")
	}
	phase = 1 // wholesale rewrite between examinations
	_, err = a.SyncPeer(mimicID.ID())
	if err == nil || !strings.Contains(err.Error(), "forger") {
		t.Fatalf("mimic not flagged: %v", err)
	}
	if !a.IsBlacklisted(mimicID.ID()) {
		t.Fatal("flagged mimic not banned")
	}
	if v, ok := a.TrustRow()[mimicID.ID()]; ok {
		t.Fatalf("flagged mimic keeps trust %v", v)
	}
	// The flag is not the user's evidence: it leaves the rating alone
	// and is not exported.
	st := a.ExportState()
	if st.Ratings[mimicID.ID()] != 1 || len(st.Banned) != 0 {
		t.Fatalf("flag changed own evidence: ratings %v, banned %v", st.Ratings, st.Banned)
	}
}

func TestUploadQueuePrefersTrusted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy.MaxOffset = time.Hour
	cfg.Policy.RefReputation = 0.5
	peers, _, _ := testnet(t, 3, cfg)
	a, trusted, stranger := peers[0], peers[1], peers[2]
	a.Vote("x", 0.9)
	trusted.Vote("x", 0.9)
	if _, err := a.SyncPeer(trusted.ID()); err != nil {
		t.Fatal(err)
	}
	if err := a.EnqueueUpload(stranger.ID(), "f", 1<<20, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.EnqueueUpload(trusted.ID(), "f", 1<<20, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	if a.PendingUploads() != 2 {
		t.Fatalf("queue depth %d", a.PendingUploads())
	}
	first, ok := a.NextUpload()
	if !ok {
		t.Fatal("empty queue")
	}
	if first.Arrival != 30*time.Minute {
		t.Fatalf("trusted requester did not overtake: first arrival %v", first.Arrival)
	}
}

func TestRecordDownloadValidation(t *testing.T) {
	peers, _, _ := testnet(t, 1, DefaultConfig())
	p := peers[0]
	if err := p.RecordDownload(p.ID(), "f", 1); err == nil {
		t.Fatal("self-download accepted")
	}
	if err := p.RecordDownload("other", "f", -1); err == nil {
		t.Fatal("negative size accepted")
	}
	if err := p.RateUser("other", 1.5); err == nil {
		t.Fatal("out-of-range rating accepted")
	}
}

// A peer's rating of itself is refused, as core refuses one: the call
// fails terminally and the trust row and the exported state keep no
// trace of it.
func TestRateUserRefusesSelf(t *testing.T) {
	peers, _, _ := testnet(t, 1, DefaultConfig())
	p := peers[0]
	if err := p.RateUser(p.ID(), 1); !fault.IsTerminal(err) {
		t.Fatalf("self-rating: err = %v, want fault.Terminal", err)
	}
	if v, ok := p.TrustRow()[p.ID()]; ok {
		t.Fatalf("self-rating left trust %v in the peer's own row", v)
	}
	if r := p.ExportState().Ratings; len(r) != 0 {
		t.Fatalf("self-rating left ratings %v", r)
	}
	if err := p.ApplyEvent(Event{Kind: EventRateUser, Target: p.ID(), Value: 1}); !fault.IsTerminal(err) {
		t.Fatalf("self-rating event: err = %v, want fault.Terminal", err)
	}
}

func TestUnreachablePeer(t *testing.T) {
	peers, ex, _ := testnet(t, 2, DefaultConfig())
	a, b := peers[0], peers[1]
	ex.Unregister(b.ID())
	if _, err := a.SyncPeer(b.ID()); err == nil {
		t.Fatal("sync with unreachable peer succeeded")
	}
}

func TestWindowExpiryInTrustRow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reputation.Window = time.Hour
	peers, _, _ := testnet(t, 2, cfg)
	a, b := peers[0], peers[1]
	a.Vote("x", 0.9)
	b.Vote("x", 0.9)
	if _, err := a.SyncPeer(b.ID()); err != nil {
		t.Fatal(err)
	}
	if a.TrustRow()[b.ID()] <= 0 {
		t.Fatal("no trust before expiry")
	}
	a.AdvanceTo(3 * time.Hour)
	// a's own evaluation expired, so the intersection is empty.
	if v := a.TrustRow()[b.ID()]; v != 0 {
		t.Fatalf("trust %v from expired evaluations", v)
	}
}

func TestJudgeFileFromCache(t *testing.T) {
	peers, _, _ := testnet(t, 3, DefaultConfig())
	a, b, c := peers[0], peers[1], peers[2]
	// Shared history so a trusts b and c, plus divergent opinions on the
	// file under judgement.
	for _, p := range peers {
		p.Vote("x", 0.9)
		p.Vote("y", 0.2)
	}
	b.Vote("f", 0.8)
	c.Vote("f", 0.6)
	if _, err := a.SyncPeer(b.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SyncPeer(c.ID()); err != nil {
		t.Fatal(err)
	}
	row := a.TrustRow()
	rb, rc := row[b.ID()], row[c.ID()]
	if rb <= 0 || rc <= 0 {
		t.Fatalf("no trust after agreeing history: %v", row)
	}
	j := a.JudgeFileFromCache("f")
	if !j.Known {
		t.Fatal("cached verdict unknown despite two synced opinions")
	}
	// The store blends votes with the retention dimension, so read the
	// expected evaluations from the signed lists themselves.
	evalOf := func(p *Peer, f eval.FileID) float64 {
		t.Helper()
		infos, err := p.SignedEvaluations()
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range infos {
			if in.FileID == f {
				return in.Evaluation
			}
		}
		t.Fatalf("%s has no evaluation for %s", p.ID(), f)
		return 0
	}
	want := (rb*evalOf(b, "f") + rc*evalOf(c, "f")) / (rb + rc)
	if math.Abs(j.Reputation-want) > 1e-12 {
		t.Fatalf("R_f = %v, want trust-weighted mean %v", j.Reputation, want)
	}
	if wantFake := want < DefaultConfig().Reputation.FakeThreshold; j.Fake != wantFake {
		t.Fatalf("Fake = %v for R_f %.3f, want %v", j.Fake, j.Reputation, wantFake)
	}
	// A file nobody in the cache evaluated stays unknown.
	if j := a.JudgeFileFromCache("nobody-voted"); j.Known {
		t.Fatalf("unknown file got verdict %+v", j)
	}
	// A uniformly low-rated file is flagged fake.
	b.Vote("junk", 0.1)
	c.Vote("junk", 0.05)
	if _, err := a.SyncPeer(b.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SyncPeer(c.ID()); err != nil {
		t.Fatal(err)
	}
	if j := a.JudgeFileFromCache("junk"); !j.Known || !j.Fake {
		t.Fatalf("low-rated file not flagged fake: %+v", j)
	}
}
