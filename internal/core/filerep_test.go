package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"mdrep/internal/eval"
)

func TestFileReputationEquation9(t *testing.T) {
	reps := map[int]float64{1: 0.6, 2: 0.2, 3: 0.2}
	owners := []OwnerEvaluation{
		{Owner: 1, Value: 1.0},
		{Owner: 2, Value: 0.5},
		{Owner: 3, Value: 0.0},
	}
	got, err := FileReputation(reps, owners)
	if err != nil {
		t.Fatal(err)
	}
	want := (0.6*1.0 + 0.2*0.5 + 0.2*0.0) / (0.6 + 0.2 + 0.2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("R_f = %v, want %v", got, want)
	}
}

func TestFileReputationIgnoresUnknownEvaluators(t *testing.T) {
	reps := map[int]float64{1: 0.5}
	owners := []OwnerEvaluation{
		{Owner: 1, Value: 1.0},
		{Owner: 9, Value: 0.0}, // no reputation path; must not drag R_f down
	}
	got, err := FileReputation(reps, owners)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("R_f = %v, want 1 (zero-reputation evaluator ignored)", got)
	}
}

func TestFileReputationNoPath(t *testing.T) {
	_, err := FileReputation(map[int]float64{}, []OwnerEvaluation{{Owner: 1, Value: 1}})
	if !errors.Is(err, ErrNoReputation) {
		t.Fatalf("err = %v, want ErrNoReputation", err)
	}
}

func TestFileReputationRejectsOutOfRange(t *testing.T) {
	reps := map[int]float64{1: 1}
	if _, err := FileReputation(reps, []OwnerEvaluation{{Owner: 1, Value: 1.2}}); err == nil {
		t.Fatal("out-of-range evaluation accepted")
	}
}

// buildJudgingEngine wires 4 peers: requester 0 trusts honest peer 1
// strongly (file similarity) while liar peer 2 has no similarity with 0.
func buildJudgingEngine(t *testing.T) *Sharded {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Alpha, cfg.Beta, cfg.Gamma = 1, 0, 0
	cfg.Blend = eval.Blend{Eta: 0, Rho: 1}
	e := mustSharded(t, 4, 1, cfg)
	mustVote := func(p int, f eval.FileID, v float64) {
		t.Helper()
		if err := e.Vote(p, f, v, 0); err != nil {
			t.Fatal(err)
		}
	}
	// 0 and 1 agree on history; 0 and 2 disagree completely.
	mustVote(0, "h1", 1.0)
	mustVote(1, "h1", 1.0)
	mustVote(0, "h2", 0.9)
	mustVote(1, "h2", 0.9)
	mustVote(2, "h1", 0.0)
	return e
}

func TestJudgeFileTrustsSimilarPeer(t *testing.T) {
	e := buildJudgingEngine(t)
	// Honest peer 1 says the file is fake (0.1); liar peer 2 says it is
	// great (1.0). Peer 0's multi-trust weights 1 far above 2.
	owners := []OwnerEvaluation{
		{Owner: 1, Value: 0.1},
		{Owner: 2, Value: 1.0},
	}
	j, err := e.JudgeFile(0, owners, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Known {
		t.Fatal("judgement unknown despite reputation path")
	}
	if !j.Fake {
		t.Fatalf("fake file not identified: R_f = %v", j.Reputation)
	}
	if j.Reputation > 0.3 {
		t.Fatalf("R_f = %v, want dominated by trusted evaluator's 0.1", j.Reputation)
	}
}

func TestJudgeFileUnknownWithoutEvidence(t *testing.T) {
	e := buildJudgingEngine(t)
	// Evaluations only from peer 3, unknown to peer 0.
	j, err := e.JudgeFile(0, []OwnerEvaluation{{Owner: 3, Value: 0.9}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.Known || j.Fake {
		t.Fatalf("judgement without evidence: %+v", j)
	}
}

func TestJudgeFileFromTMMatchesJudgeFile(t *testing.T) {
	e := buildJudgingEngine(t)
	owners := []OwnerEvaluation{{Owner: 1, Value: 0.2}, {Owner: 2, Value: 0.9}}
	direct, err := e.JudgeFile(0, owners, 0)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := e.TM(0)
	if err != nil {
		t.Fatal(err)
	}
	viaTM, err := e.JudgeFileFromTM(tm, 0, owners)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct.Reputation-viaTM.Reputation) > 1e-12 || direct.Fake != viaTM.Fake {
		t.Fatalf("JudgeFileFromTM diverges: %+v vs %+v", viaTM, direct)
	}
}

func TestCollectOwnerEvaluations(t *testing.T) {
	e := buildJudgingEngine(t)
	if err := e.Vote(3, "h1", 0.5, 0); err != nil {
		t.Fatal(err)
	}
	got := e.CollectOwnerEvaluations("h1", []int{2, 0, 3, 99}, 0)
	if len(got) != 3 {
		t.Fatalf("collected %d evaluations, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Owner >= got[i].Owner {
			t.Fatal("owner evaluations not sorted")
		}
	}
}

func TestCollectOwnerEvaluationsHonoursWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = time.Hour
	e := mustSharded(t, 2, 1, cfg)
	if err := e.Vote(0, "f", 0.9, 0); err != nil {
		t.Fatal(err)
	}
	if got := e.CollectOwnerEvaluations("f", []int{0}, 2*time.Hour); len(got) != 0 {
		t.Fatalf("expired evaluation collected: %+v", got)
	}
}
