package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/sparse"
)

// OwnerEvaluation is one owner's published evaluation of a file, as
// retrieved from the file's index peer (§4.1 step 3).
type OwnerEvaluation struct {
	// Owner is the peer index of the evaluator.
	Owner int
	// Value is the owner's published evaluation in [0,1].
	Value float64
}

// ErrNoReputation is returned when the requester has no reputation path to
// any of the file's evaluators, so Eq. (9) is undefined.
var ErrNoReputation = errors.New("core: no reputation path to any evaluator")

// FileReputation computes R_f for requester i over the evaluator set U
// (Eq. 9):
//
//	R_f = Σ_{j∈U} RM_ij·E_jf / Σ_{j∈U} RM_ij
//
// reps is row i of RM (from Reputations). Evaluators with zero reputation
// contribute nothing, so a clique of unknown peers cannot sway the score.
func FileReputation(reps map[int]float64, owners []OwnerEvaluation) (float64, error) {
	ev, err := ownerEvidence(reps, owners)
	if err != nil {
		return 0, err
	}
	rf, ok := ev.reputation()
	if !ok {
		return 0, ErrNoReputation
	}
	return rf, nil
}

// ownerEvidence accumulates Eq. (9) over owners in order, rejecting an
// evaluation outside [0,1].
func ownerEvidence(reps map[int]float64, owners []OwnerEvaluation) (FileEvidence, error) {
	var ev FileEvidence
	for _, oe := range owners {
		if v := oe.Value; math.IsNaN(v) || v < 0 || v > 1 {
			return FileEvidence{}, fmt.Errorf("core: owner %d evaluation %v outside [0,1]", oe.Owner, oe.Value)
		}
		ev.Add(reps[oe.Owner], oe.Value)
	}
	return ev, nil
}

// FileEvidence accumulates the two sums of Eq. (9) for one file, Σ r·e
// and Σ r, in the order evaluations are added. The engine and the peer
// daemon both judge files through it.
type FileEvidence struct {
	num, den float64
}

// Add counts evaluation e weighted by the evaluator's reputation r.
// An evaluator with r <= 0 contributes nothing.
func (a *FileEvidence) Add(r, e float64) {
	if r <= 0 {
		return
	}
	a.num += r * e
	a.den += r
}

// reputation returns R_f = Σ r·e / Σ r, and false when no evaluator
// with positive reputation was added.
func (a FileEvidence) reputation() (float64, bool) {
	if a.den <= 0 {
		return 0, false
	}
	return a.num / a.den, true
}

// Judge is the §3.3 verdict on a file's evidence: Unknown without any
// reputation-weighted evidence, Fake when R_f is below FakeThreshold.
func (c Config) Judge(a FileEvidence) Judgement {
	rf, ok := a.reputation()
	if !ok {
		return Judgement{}
	}
	return Judgement{Reputation: rf, Known: true, Fake: rf < c.FakeThreshold}
}

// Judgement is the outcome of judging a file before download (§3.3).
type Judgement struct {
	// Reputation is R_f; meaningful only when Known.
	Reputation float64
	// Known reports whether any reputation-weighted evidence existed.
	Known bool
	// Fake reports Known && Reputation < threshold.
	Fake bool
}

// JudgeFile computes peer i's judgement of a file from the owners'
// published evaluations, using the engine's multi-trust reputations and
// fake threshold. A file with no reachable evidence is Unknown, not fake:
// the paper leaves the decision to a per-user threshold, and punishing
// absent evidence would lock new files out of the system.
func (e *Engine) JudgeFile(i int, owners []OwnerEvaluation, now time.Duration) (Judgement, error) {
	reps, err := e.Reputations(i, now)
	if err != nil {
		return Judgement{}, err
	}
	return e.judgeWith(reps, owners)
}

// JudgeFileFromTM is JudgeFile against a prebuilt TM, amortising matrix
// construction across many judgements.
func (e *Engine) JudgeFileFromTM(tm *sparse.CSR, i int, owners []OwnerEvaluation) (Judgement, error) {
	reps, err := tm.RowVecPow(i, e.cfg.Steps)
	if err != nil {
		return Judgement{}, err
	}
	return e.judgeWith(reps, owners)
}

func (e *Engine) judgeWith(reps map[int]float64, owners []OwnerEvaluation) (Judgement, error) {
	ev, err := ownerEvidence(reps, owners)
	if err != nil {
		return Judgement{}, err
	}
	return e.cfg.Judge(ev), nil
}

// CollectOwnerEvaluations gathers the live published evaluations of file f
// from a set of owner peers out of the engine's own stores — the
// simulation-side stand-in for retrieving EvaluationInfo records from the
// DHT index peer.
func (e *Engine) CollectOwnerEvaluations(f eval.FileID, owners []int, now time.Duration) []OwnerEvaluation {
	out := make([]OwnerEvaluation, 0, len(owners))
	for _, o := range owners {
		if e.checkPeer(o) != nil {
			continue
		}
		if v, ok := e.stores[o].Get(f, now); ok {
			out = append(out, OwnerEvaluation{Owner: o, Value: v})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Owner < out[b].Owner })
	return out
}
