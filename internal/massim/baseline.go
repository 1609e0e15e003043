package massim

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mdrep/internal/blue"
	"mdrep/internal/core"
	"mdrep/internal/eigentrust"
	"mdrep/internal/eval"
	"mdrep/internal/multitier"
)

// ClassMean is one estimator's mean score over one class.
type ClassMean struct {
	Class string
	Mean  float64
}

// BaselineResult reports the comparison estimators over the same
// interaction log the massim reputation model consumed.
type BaselineResult struct {
	// EigenTrust means are scaled by n (1.0 = the uniform share), since
	// the raw trust vector sums to one.
	EigenTrust []ClassMean
	// EigenTrustConverged reports power-iteration convergence.
	EigenTrustConverged bool
	// Blue means are raw BLUE trust scores in [0,1].
	Blue []ClassMean
	// Engine means are peer 0's multi-trust reputations from the
	// mirrored core engine (nil unless mirroring ran).
	Engine []ClassMean
}

func (b *BaselineResult) render() string {
	var sb strings.Builder
	line := func(name string, means []ClassMean, suffix string) {
		if means == nil {
			return
		}
		fmt.Fprintf(&sb, "  baseline %-10s", name)
		for _, m := range means {
			fmt.Fprintf(&sb, " %s=%.6f", m.Class, m.Mean)
		}
		sb.WriteString(suffix)
		sb.WriteByte('\n')
	}
	suffix := ""
	if !b.EigenTrustConverged {
		suffix = " (not converged)"
	}
	line("eigentrust", b.EigenTrust, suffix)
	line("blue", b.Blue, "")
	line("engine", b.Engine, "")
	return sb.String()
}

// tierClassifier builds the report's tier classifier, or nil when tier
// bounds are not configured.
func (s *Sim) tierClassifier() *multitier.VecClassifier {
	if len(s.cfg.TierBounds) == 0 {
		return nil
	}
	vc, err := multitier.NewVecClassifier(s.cfg.TierBounds)
	if err != nil {
		return nil
	}
	return vc
}

// classMeansOf averages a per-peer score vector per class.
func (s *Sim) classMeansOf(score []float64) []ClassMean {
	out := make([]ClassMean, len(s.specs))
	for k, sp := range s.specs {
		lo, hi := int(s.start[k]), int(s.start[k+1])
		sum := 0.0
		for j := lo; j < hi; j++ {
			sum += score[j]
		}
		out[k] = ClassMean{Class: sp.Name, Mean: sum / float64(hi-lo)}
	}
	return out
}

// runBaselines replays the recorded rating log through the comparison
// estimators. The log is kept in event order; aggregation sorts a copy
// by (rater, target) so the fold order — and hence every floating-point
// sum — is reproducible.
func (s *Sim) runBaselines() (*BaselineResult, error) {
	recs := make([]ratingRec, len(s.log))
	copy(recs, s.log)
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].rater != recs[j].rater {
			return recs[i].rater < recs[j].rater
		}
		return recs[i].target < recs[j].target
	})

	// Fold runs of equal (rater, target) into pairwise counts.
	type pair struct{ sat, unsat float64 }
	var samples []blue.Sample
	satM, unsM := make([]map[int]float64, s.cfg.N), make([]map[int]float64, s.cfg.N)
	for i := 0; i < len(recs); {
		j := i
		var p pair
		for ; j < len(recs) && recs[j].rater == recs[i].rater && recs[j].target == recs[i].target; j++ {
			if recs[j].sat {
				p.sat++
			} else {
				p.unsat++
			}
		}
		samples = append(samples, blue.Sample{
			Rater: int(recs[i].rater), Target: int(recs[i].target),
			Sat: p.sat, Unsat: p.unsat,
		})
		r := int(recs[i].rater)
		if satM[r] == nil {
			satM[r], unsM[r] = make(map[int]float64), make(map[int]float64)
		}
		satM[r][int(recs[i].target)] = p.sat
		unsM[r][int(recs[i].target)] = p.unsat
		i = j
	}

	res := &BaselineResult{}

	bt, err := blue.Estimate(s.cfg.N, samples, blue.DefaultConfig())
	if err != nil {
		return nil, err
	}
	res.Blue = s.classMeansOf(bt)

	local, err := eigentrust.LocalTrustFromSatisfaction(satM, unsM)
	if err != nil {
		return nil, err
	}
	honLo, honHi := s.ClassRange(len(s.specs) - 1)
	pre := make([]int, 0, 8)
	for p := honLo; p < honHi && len(pre) < 8; p++ {
		pre = append(pre, int(p))
	}
	et, err := eigentrust.Compute(local, eigentrust.DefaultConfig(pre))
	if err != nil {
		return nil, err
	}
	scaled := make([]float64, len(et.Trust))
	for j, v := range et.Trust {
		scaled[j] = v * float64(len(et.Trust))
	}
	res.EigenTrust = s.classMeansOf(scaled)
	res.EigenTrustConverged = et.Converged

	if s.mirror != nil {
		means, err := s.mirror.classMeans(s)
		if err != nil {
			return nil, err
		}
		res.Engine = means
	}
	return res, nil
}

// engineMirror feeds the simulator's event stream into the real
// reputation engine through the group-commit batch path, turning the
// engine itself into a baseline estimator at small n. Every shard count
// gives bit-identical results, so Config.MirrorShards changes no
// scenario bound.
type engineMirror struct {
	eng *core.Sharded
	buf []core.Event
	now time.Duration
	err error
}

func newEngineMirror(n, shards int) (*engineMirror, error) {
	eng, err := core.NewSharded(n, max(shards, 1), core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &engineMirror{eng: eng}, nil
}

func mirrorFile(t int32, v int8) eval.FileID {
	return eval.FileID(fmt.Sprintf("t%d.%d", t, v))
}

func (m *engineMirror) download(p, srv, t int32, v int8, now time.Duration) {
	m.buf = append(m.buf, core.Event{
		Kind: core.EventDownload, I: int(p), J: int(srv),
		File: mirrorFile(t, v), Size: 1 << 10, Time: now,
	})
}

func (m *engineMirror) vote(p, t int32, v int8, up bool, now time.Duration) {
	val := 0.0
	if up {
		val = 1.0
	}
	m.buf = append(m.buf, core.Event{
		Kind: core.EventVote, I: int(p), File: mirrorFile(t, v), Value: val, Time: now,
	})
}

func (m *engineMirror) rate(rater, target int32, sat bool) {
	val := 0.0
	if sat {
		val = 1.0
	}
	m.buf = append(m.buf, core.Event{
		Kind: core.EventRateUser, I: int(rater), J: int(target), Value: val,
	})
}

// flush applies the epoch's buffered events as one group-commit batch.
func (m *engineMirror) flush(now time.Duration) {
	m.now = now
	if m.err != nil || len(m.buf) == 0 {
		m.buf = m.buf[:0]
		return
	}
	if err := m.eng.ApplyBatch(m.buf); err != nil {
		m.err = err
	}
	m.buf = m.buf[:0]
}

// classMeans reads peer 0's multi-trust reputation view and averages it
// per class. Peer indices are looked up directly, never ranged over the
// reputation map, so the float fold order is fixed.
func (m *engineMirror) classMeans(s *Sim) ([]ClassMean, error) {
	if m.err != nil {
		return nil, m.err
	}
	reps, err := m.eng.Reputations(0, m.now)
	if err != nil {
		return nil, err
	}
	score := make([]float64, s.cfg.N)
	for j := range score {
		score[j] = reps[j]
	}
	return s.classMeansOf(score), nil
}
