package peer

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/eval"
	"mdrep/internal/identity"
	"mdrep/internal/sim"
)

// TestTrustRowMatchesEngine binds the daemon to the trust core. §4.1 has
// every peer compute its own row of Eqs. (2)–(7) and the Eq. (9)
// verdicts; core computes the same quantities for a whole population.
// Each case feeds a core.Sharded the evidence of a network of peers —
// every peer's votes and retention signals at the same virtual times,
// the judge's downloads, ratings and, in the blacklist cases, one
// blacklisting — with the peers numbered by ascending ID. After the
// judge syncs every other peer, its TrustRow must equal its row of TM
// (with Steps = 1 also its RM row) key for key and bit for bit, and
// JudgeFile and JudgeFileFromCache must give the engine's verdict, R_f
// bits included, for every file.
func TestTrustRowMatchesEngine(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		blacklist := seed > 20
		t.Run(fmt.Sprintf("seed=%d/blacklist=%v", seed, blacklist), func(t *testing.T) {
			diffTrustRow(t, seed, blacklist)
		})
	}
}

func diffTrustRow(t *testing.T, seed uint64, blacklist bool) {
	const n, files, rounds = 24, 40, 3
	cfg := DefaultConfig()
	peers, _, _ := testnet(t, n, cfg)
	slices.SortFunc(peers, func(a, b *Peer) int { return cmp.Compare(a.ID(), b.ID()) })
	index := make(map[identity.PeerID]int, n)
	for k, p := range peers {
		index[p.ID()] = k
	}
	eng, err := core.NewSharded(n, 1, cfg.Reputation)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	file := func(f int) eval.FileID { return eval.FileID(fmt.Sprintf("f%02d", f)) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	ji := rng.Intn(n)
	judge := peers[ji]

	var now time.Duration
	for round := 0; round < rounds; round++ {
		now = time.Duration(round) * time.Hour
		for k, p := range peers {
			p.AdvanceTo(now)
			for f := 0; f < files; f++ {
				switch x := rng.Float64(); {
				case x < 0.15:
					v := rng.Float64()
					p.Vote(file(f), v)
					must(eng.Vote(k, file(f), v, now))
				case x < 0.35:
					ret := time.Duration(rng.Intn(30*24)) * time.Hour
					deleted := rng.Intn(4) == 0
					p.ObserveRetention(file(f), ret, deleted)
					must(eng.ObserveRetention(k, file(f), ret, deleted, now))
				}
			}
		}
		for d := 0; d < 6; d++ {
			j := rng.Intn(n - 1)
			if j >= ji {
				j++
			}
			f, size := file(rng.Intn(files+5)), int64(1+rng.Intn(1<<20))
			must(judge.RecordDownload(peers[j].ID(), f, size))
			must(eng.RecordDownload(ji, j, f, size, now))
		}
		for r := 0; r < 3; r++ {
			j := rng.Intn(n - 1)
			if j >= ji {
				j++
			}
			v := math.Round(rng.Float64()*10) / 10
			must(judge.RateUser(peers[j].ID(), v))
			must(eng.RateUser(ji, j, v))
		}
	}
	if blacklist {
		// Ban one peer, then rate it again: §3.1.3 zeroes UT_ij for
		// good, while its FT and VD still count.
		j := rng.Intn(n - 1)
		if j >= ji {
			j++
		}
		judge.Blacklist(peers[j].ID())
		must(eng.Blacklist(ji, j))
		must(judge.RateUser(peers[j].ID(), 1))
		must(eng.RateUser(ji, j, 1))
	}
	now = rounds * time.Hour
	for k, p := range peers {
		p.AdvanceTo(now)
		if k != ji {
			if _, err := judge.SyncPeer(p.ID()); err != nil {
				t.Fatal(err)
			}
		}
	}

	tm, err := eng.TM(now)
	must(err)
	cols, vals := tm.Row(ji)
	row := judge.TrustRow()
	if len(row) != len(cols) {
		t.Fatalf("TrustRow has %d entries, engine row has %d", len(row), len(cols))
	}
	reps, err := eng.ReputationsFromTM(tm, ji)
	must(err)
	for k, c := range cols {
		id := peers[c].ID()
		got, ok := row[id]
		if !ok {
			t.Fatalf("TrustRow lacks peer %d (%s)", c, id)
		}
		if math.Float64bits(got) != math.Float64bits(vals[k]) || math.Float64bits(got) != math.Float64bits(reps[int(c)]) {
			t.Errorf("trust in peer %d: daemon %v, TM %v, RM %v", c, got, vals[k], reps[int(c)])
		}
	}

	records := make(map[eval.FileID][]eval.Info)
	for _, p := range peers {
		infos, err := p.SignedEvaluations()
		must(err)
		for _, in := range infos {
			records[in.FileID] = append(records[in.FileID], in)
		}
	}
	for f := 0; f < files; f++ {
		recs := records[file(f)]
		owners := make([]core.OwnerEvaluation, len(recs))
		for k, in := range recs {
			owners[k] = core.OwnerEvaluation{Owner: index[in.OwnerID], Value: in.Evaluation}
		}
		want, err := eng.JudgeFileFromTM(tm, ji, owners)
		must(err)
		got, err := judge.JudgeFile(recs)
		must(err)
		check := func(name string, j core.Judgement) {
			if math.Float64bits(j.Reputation) != math.Float64bits(want.Reputation) || j.Known != want.Known || j.Fake != want.Fake {
				t.Errorf("%s(%s) = %+v, engine %+v", name, file(f), j, want)
			}
		}
		check("JudgeFile", got)
		check("JudgeFileFromCache", judge.JudgeFileFromCache(file(f)))
	}
}
