package peer

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/identity"
)

// servedFresh fetches p's signed list and fails unless every entry is
// byte for byte what a fresh Sign of a copy produces, and verifies.
func servedFresh(t *testing.T, p *Peer) []eval.Info {
	t.Helper()
	infos, err := p.SignedEvaluations()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range infos {
		fresh := in
		fresh.Signature = nil
		if err := fresh.Sign(p.id); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(in.Signature, fresh.Signature) {
			t.Fatalf("%s: served signature differs from a fresh one", in.FileID)
		}
		if err := in.Verify(p.dir); err != nil {
			t.Fatalf("%s: served entry fails verification: %v", in.FileID, err)
		}
	}
	return infos
}

// sigsByFile maps each served file to its signature.
func sigsByFile(infos []eval.Info) map[eval.FileID][]byte {
	out := make(map[eval.FileID][]byte, len(infos))
	for _, in := range infos {
		out[in.FileID] = in.Signature
	}
	return out
}

func TestSignedEvaluationsMatchFreshSigning(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reputation.Window = time.Hour
	peers, _, _ := testnet(t, 1, cfg)
	p := peers[0]
	p.Vote("a", 0.8)
	p.Vote("b", 0.3)
	p.AdvanceTo(50 * time.Minute)
	p.Vote("c", 0.6)

	first := servedFresh(t, p)
	again := servedFresh(t, p)
	if len(first) != 3 || len(again) != 3 {
		t.Fatalf("served %d then %d entries, want 3", len(first), len(again))
	}
	for k := range first {
		if !bytes.Equal(first[k].Signature, again[k].Signature) {
			t.Fatalf("%s: signature changed between calls with nothing changed", first[k].FileID)
		}
	}

	p.Vote("b", 0.9)
	voted := sigsByFile(servedFresh(t, p))
	for f, sig := range sigsByFile(again) {
		if changed := !bytes.Equal(sig, voted[f]); changed != (f == "b") {
			t.Fatalf("%s: signature changed = %v after a vote on b", f, changed)
		}
	}

	p.AdvanceTo(55 * time.Minute)
	advanced := servedFresh(t, p)
	for _, in := range advanced {
		if in.Timestamp != 55*time.Minute {
			t.Fatalf("%s: timestamp %v after AdvanceTo(55m)", in.FileID, in.Timestamp)
		}
		if bytes.Equal(in.Signature, voted[in.FileID]) {
			t.Fatalf("%s: signature survived a clock advance", in.FileID)
		}
	}

	// a was last updated at 0, so it expires past the one-hour window;
	// b and c, updated at 50m, stay.
	p.AdvanceTo(100 * time.Minute)
	live := servedFresh(t, p)
	if len(live) != 2 || live[0].FileID != "b" || live[1].FileID != "c" {
		t.Fatalf("served %+v after expiry, want b and c", live)
	}
	p.signed.mu.Lock()
	defer p.signed.mu.Unlock()
	if _, ok := p.signed.entries["a"]; ok || len(p.signed.entries) != 2 {
		t.Fatalf("memo holds %d files after a expired, want b and c", len(p.signed.entries))
	}
}

func TestSignedEvaluationsServeCopies(t *testing.T) {
	peers, _, _ := testnet(t, 1, DefaultConfig())
	p := peers[0]
	p.Vote("a", 0.8)
	p.Vote("b", 0.3)
	first := servedFresh(t, p)
	want := make([][]byte, len(first))
	for k, in := range first {
		want[k] = bytes.Clone(in.Signature)
		in.Signature[0] ^= 0xff
	}
	for k, in := range servedFresh(t, p) {
		if !bytes.Equal(in.Signature, want[k]) {
			t.Fatalf("%s: altering a served signature reached the next call", in.FileID)
		}
	}
}

func TestSignedEvaluationsSignOnlyChanges(t *testing.T) {
	peers, _, _ := testnet(t, 1, DefaultConfig())
	p := peers[0]
	for f := 0; f < 48; f++ {
		p.Vote(eval.FileID(fmt.Sprintf("f%02d", f)), float64(f)/47)
	}
	made := func() int {
		p.signed.mu.Lock()
		defer p.signed.mu.Unlock()
		return p.signed.made
	}
	servedFresh(t, p)
	if got := made(); got != 48 {
		t.Fatalf("first call made %d signatures, want 48", got)
	}
	servedFresh(t, p)
	if got := made(); got != 48 {
		t.Fatalf("an unchanged list was signed again: %d signatures in all", got)
	}
	p.Vote("f07", 0.5)
	servedFresh(t, p)
	if got := made(); got != 49 {
		t.Fatalf("one vote cost %d signatures, want 1", got-48)
	}
}

// TestSignedEvaluationsConcurrentServe serves one peer's list from eight
// goroutines while another votes; run it under -race.
func TestSignedEvaluationsConcurrentServe(t *testing.T) {
	peers, _, dir := testnet(t, 1, DefaultConfig())
	p := peers[0]
	for f := 0; f < 16; f++ {
		p.Vote(eval.FileID(fmt.Sprintf("f%02d", f)), 0.5)
	}
	stop := make(chan struct{})
	var voter sync.WaitGroup
	voter.Add(1)
	go func() {
		defer voter.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p.Vote(eval.FileID(fmt.Sprintf("f%02d", i%16)), float64(i%7)/6)
		}
	}()
	var servers sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		servers.Add(1)
		go func() {
			defer servers.Done()
			for i := 0; i < 50; i++ {
				infos, err := p.SignedEvaluations()
				if err != nil {
					errs <- err
					return
				}
				for _, in := range infos {
					if err := in.Verify(dir); err != nil {
						errs <- fmt.Errorf("%s: %w", in.FileID, err)
						return
					}
				}
			}
		}()
	}
	servers.Wait()
	close(stop)
	voter.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSyncPeerReverifiesUnchangedList syncs an honest list, then serves
// the same list with one evaluation altered under its old signature: a
// list seen before must not be waved through.
func TestSyncPeerReverifiesUnchangedList(t *testing.T) {
	peers, ex, _ := testnet(t, 2, DefaultConfig())
	a, b := peers[0], peers[1]
	for f := 0; f < 8; f++ {
		v := float64(f) / 8
		a.Vote(eval.FileID(fmt.Sprintf("f%d", f)), v)
		b.Vote(eval.FileID(fmt.Sprintf("f%d", f)), v)
	}
	if n, err := a.SyncPeer(b.ID()); err != nil || n != 8 {
		t.Fatalf("honest sync: %d entries, %v", n, err)
	}
	ex.RegisterFunc(b.ID(), func() ([]eval.Info, error) {
		infos, err := b.SignedEvaluations()
		if err != nil {
			return nil, err
		}
		infos[3].Evaluation += 0.01
		return infos, nil
	})
	n, err := a.SyncPeer(b.ID())
	if err != nil {
		t.Fatal(err)
	}
	a.mu.RLock()
	_, kept := a.lists[b.ID()]["f3"]
	a.mu.RUnlock()
	if n != 7 || kept {
		t.Fatalf("resync kept %d entries (tampered f3 kept: %v), want 7 without f3", n, kept)
	}
}

// TestSyncAndJudgeGOMAXPROCSInvariant runs the same syncs and judgement
// at GOMAXPROCS 1 and 4 over lists that mix honest, forged and relayed
// entries. The accepted counts, the trust row and R_f must be identical
// to the bit, as walk's estimates are.
func TestSyncAndJudgeGOMAXPROCSInvariant(t *testing.T) {
	type outcome struct {
		accepted []int
		row      map[identity.PeerID]uint64
		rf       uint64
	}
	run := func() outcome {
		const owners, files = 6, 48
		peers, ex, _ := testnet(t, owners+1, DefaultConfig())
		judge := peers[0]
		file := func(f int) eval.FileID { return eval.FileID(fmt.Sprintf("file-%02d", f)) }
		for f := 0; f < files; f++ {
			judge.Vote(file(f), float64(f*37%101)/100)
		}
		var records []eval.Info
		for o, p := range peers[1:] {
			for f := 0; f < files; f++ {
				p.Vote(file(f), float64((o*13+f*29)%103)/102)
			}
			p.Vote("target", float64(o)/owners)
			infos, err := p.SignedEvaluations()
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range infos {
				if in.FileID == "target" {
					forged := in
					forged.Evaluation = math.Mod(forged.Evaluation+0.5, 1)
					records = append(records, in, forged)
				}
			}
		}
		// Owner 1 serves forged entries and owner 2's entries among its
		// own, at the ends and across the chunk boundaries of 2–4 workers.
		relay := peers[2]
		ex.RegisterFunc(peers[1].ID(), func() ([]eval.Info, error) {
			own, err := peers[1].SignedEvaluations()
			if err != nil {
				return nil, err
			}
			other, err := relay.SignedEvaluations()
			if err != nil {
				return nil, err
			}
			for _, k := range []int{0, 11, 12, 24, 36, len(own) - 1} {
				own[k].Evaluation = math.Mod(own[k].Evaluation+0.5, 1)
			}
			mixed := append([]eval.Info{other[0]}, own[:25]...)
			mixed = append(mixed, other[1:4]...)
			return append(mixed, own[25:]...), nil
		})
		var out outcome
		for _, p := range peers[1:] {
			n, err := judge.SyncPeer(p.ID())
			if err != nil {
				t.Fatal(err)
			}
			out.accepted = append(out.accepted, n)
		}
		records = append(records, eval.Info{FileID: "target", OwnerID: relay.ID(), Evaluation: 2})
		j, err := judge.JudgeFile(records)
		if err != nil {
			t.Fatal(err)
		}
		if !j.Known {
			t.Fatal("no verdict")
		}
		out.rf = math.Float64bits(j.Reputation)
		out.row = make(map[identity.PeerID]uint64)
		for id, v := range judge.TrustRow() {
			out.row[id] = math.Float64bits(v)
		}
		return out
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GOMAXPROCS(1)
	want := run()
	if want.accepted[0] != 49-6 {
		t.Fatalf("owner 1's mixed list: %d entries accepted, want 43", want.accepted[0])
	}
	runtime.GOMAXPROCS(4)
	got := run()
	if fmt.Sprint(got.accepted) != fmt.Sprint(want.accepted) {
		t.Fatalf("accepted counts %v at GOMAXPROCS 4, %v at 1", got.accepted, want.accepted)
	}
	if got.rf != want.rf {
		t.Fatalf("R_f bits %x at GOMAXPROCS 4, %x at 1", got.rf, want.rf)
	}
	if len(got.row) != len(want.row) {
		t.Fatalf("trust row has %d entries at GOMAXPROCS 4, %d at 1", len(got.row), len(want.row))
	}
	for id, bits := range want.row {
		if got.row[id] != bits {
			t.Fatalf("trust in %s differs between GOMAXPROCS 1 and 4", id)
		}
	}
}

// TestSignedEvaluationsListSignature checks the served list signature.
// Every record of a call carries the same one, equal to a fresh
// eval.SignList, and it alone authenticates the list: VerifyAll accepts
// every record with all their own signatures spoiled. It is reused while
// nothing changes and made again after a vote, an expiry and a clock
// advance, and after the memo drops a file at an unchanged clock. No two
// calls share its bytes.
func TestSignedEvaluationsListSignature(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reputation.Window = time.Hour
	peers, _, dir := testnet(t, 1, cfg)
	p := peers[0]
	p.Vote("a", 0.8)
	p.Vote("b", 0.3)
	p.AdvanceTo(50 * time.Minute)
	p.Vote("c", 0.6)
	p.Vote("d", 0.1)

	listsMade := func() int {
		p.signed.mu.Lock()
		defer p.signed.mu.Unlock()
		return p.signed.listsMade
	}
	check := func(step string, infos []eval.Info, wantMade int) []byte {
		t.Helper()
		ls := infos[0].ListSignature
		for _, in := range infos {
			if !bytes.Equal(in.ListSignature, ls) {
				t.Fatalf("%s: %s carries another list signature", step, in.FileID)
			}
		}
		fresh, err := eval.SignList(p.id, infos)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ls, fresh) {
			t.Fatalf("%s: served list signature differs from a fresh one", step)
		}
		spoiled := slices.Clone(infos)
		for k := range spoiled {
			spoiled[k].Signature = make([]byte, len(spoiled[k].Signature))
		}
		for k, err := range eval.VerifyAll(dir, spoiled) {
			if err != nil {
				t.Fatalf("%s: %s not accepted by its list signature: %v", step, spoiled[k].FileID, err)
			}
		}
		if got := listsMade(); got != wantMade {
			t.Fatalf("%s: %d list signatures made in all, want %d", step, got, wantMade)
		}
		return bytes.Clone(ls)
	}

	first := servedFresh(t, p)
	ls := check("first call", first, 1)
	// A caller altering its copy must not reach the next call.
	first[0].ListSignature[0] ^= 0xff
	if again := check("unchanged", servedFresh(t, p), 1); !bytes.Equal(again, ls) {
		t.Fatal("list signature changed between calls with nothing changed")
	}

	p.Vote("b", 0.9)
	voted := check("after a vote", servedFresh(t, p), 2)
	p.AdvanceTo(55 * time.Minute)
	advanced := check("after a clock advance", servedFresh(t, p), 3)
	// a was last updated at 0, so it expires past the one-hour window.
	p.AdvanceTo(100 * time.Minute)
	live := servedFresh(t, p)
	if len(live) != 3 {
		t.Fatalf("served %d entries after a expired, want 3", len(live))
	}
	expired := check("after an expiry", live, 4)

	// The memo drops a file at an unchanged clock: no entry is signed
	// again, but the list is.
	snap := map[eval.FileID]float64{}
	for _, in := range live[1:] {
		snap[in.FileID] = in.Evaluation
	}
	made := p.signed.made
	dropped, err := p.signed.sign(p.id, snap, 100*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if p.signed.made != made {
		t.Fatalf("dropping a file signed %d entries again", p.signed.made-made)
	}
	afterDrop := check("after a drop", dropped, 5)

	seen := [][]byte{ls, voted, advanced, expired, afterDrop}
	for x := range seen {
		for y := x + 1; y < len(seen); y++ {
			if bytes.Equal(seen[x], seen[y]) {
				t.Fatalf("list signatures %d and %d are equal across a change", x, y)
			}
		}
	}
}
