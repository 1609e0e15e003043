package peer

import (
	"math"
	"testing"

	"mdrep/internal/core"
	"mdrep/internal/eval"
	"mdrep/internal/identity"
)

// TestRangeChecksRefuseNaN runs a NaN through every entry point that
// checks a value against [0,1]. NaN fails every comparison, so a check
// written as v < 0 || v > 1 lets it through; the exchange codec carries
// NaN bits, so a signed NaN record can now reach a judge.
func TestRangeChecksRefuseNaN(t *testing.T) {
	nan := math.NaN()
	cfg := DefaultConfig()
	cfg.Reputation.Blend = eval.Blend{Eta: 0, Rho: 1}
	peers, _, dir := testnet(t, 3, cfg)
	judge, owner, other := peers[0], peers[1], peers[2]
	// The judge trusts both owners, so a record's weight is not zero.
	for _, p := range peers {
		p.Vote("h", 0.9)
	}
	for _, p := range peers[1:] {
		if _, err := judge.SyncPeer(p.ID()); err != nil {
			t.Fatal(err)
		}
	}
	sign := func(id *identity.Identity, f eval.FileID, v float64) eval.Info {
		t.Helper()
		in := eval.Info{FileID: f, OwnerID: id.ID(), Evaluation: v, Timestamp: 1}
		if err := in.Sign(id); err != nil {
			t.Fatal(err)
		}
		return in
	}
	bad := sign(owner.id, "x", nan)
	good := sign(other.id, "x", 0.8)
	// owner's whole list, signed as one: a, x (NaN) and z.
	list := []eval.Info{sign(owner.id, "a", 0.9), bad, sign(owner.id, "z", 0.2)}
	ls, err := eval.SignList(owner.id, list)
	if err != nil {
		t.Fatal(err)
	}
	for k := range list {
		list[k].ListSignature = ls
	}
	// judged reports whether records judge like want, bit for bit.
	judged := func(records, want []eval.Info) bool {
		got, err := judge.JudgeFile(records)
		if err != nil {
			t.Fatal(err)
		}
		w, err := judge.JudgeFile(want)
		if err != nil {
			t.Fatal(err)
		}
		return got.Known == w.Known && got.Fake == w.Fake &&
			math.Float64bits(got.Reputation) == math.Float64bits(w.Reputation)
	}

	for _, tc := range []struct {
		name    string
		refuses func() bool
	}{
		{"eval.Info.Verify", func() bool { return bad.Verify(dir) != nil }},
		{"eval.VerifyAll, record path", func() bool {
			errs := eval.VerifyAll(dir, []eval.Info{bad, good})
			return errs[0] != nil && errs[1] == nil
		}},
		{"eval.VerifyAll, list path", func() bool {
			errs := eval.VerifyAll(dir, list)
			return errs[0] == nil && errs[1] != nil && errs[2] == nil
		}},
		{"JudgeFile, record path", func() bool { return judged([]eval.Info{bad, good}, []eval.Info{good}) }},
		{"JudgeFile, list path", func() bool { return judged(list, []eval.Info{list[0], list[2]}) }},
		{"eval.Store.Vote", func() bool {
			s, err := eval.NewStore(eval.Blend{Eta: 0, Rho: 1}, 0)
			if err != nil {
				t.Fatal(err)
			}
			s.Vote("f", nan, 0)
			v, ok := s.Get("f", 0)
			return ok && v == 0
		}},
		{"core.ValidateEvent, user rating", func() bool {
			return core.ValidateEvent(2, core.Event{Kind: core.EventRateUser, I: 0, J: 1, Value: nan}) != nil
		}},
		{"core.FileReputation", func() bool {
			_, err := core.FileReputation(map[int]float64{0: 1}, []core.OwnerEvaluation{{Owner: 0, Value: nan}})
			return err != nil
		}},
		{"Peer.RateUser", func() bool { return judge.RateUser(other.ID(), nan) != nil }},
		{"Peer.RestoreState", func() bool {
			st := judge.ExportState()
			st.Ratings = map[identity.PeerID]float64{other.ID(): nan}
			return judge.RestoreState(st) != nil
		}},
	} {
		if !tc.refuses() {
			t.Errorf("%s lets NaN through", tc.name)
		}
	}
}
