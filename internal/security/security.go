// Package security implements the attack and defence machinery of §4.2:
//
//   - Attack 3 (mimicry): a peer forges its published evaluation list to
//     match a victim's, buying file-based trust it did not earn.
//     Defence: proactive random examination (Swamynathan et al., IPTPS
//     2006) — a virtual user samples a peer's evaluation list repeatedly;
//     "if there are great differences between two examinations, it means
//     this user has forged his evaluations and he should be punished."
//   - Attack 4 (collusion): a clique mutually inflates user ratings and
//     download volumes (analysed in Lian et al.); helpers inject such
//     cliques into a trust engine so experiments can measure how far they
//     get (E3).
//
// Attack 1 (forged records) is defended in internal/eval (signatures) and
// internal/dht (verifying storage); attack 2 (routing) is out of the
// paper's scope.
package security

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/eval"
	"mdrep/internal/sim"
)

// Examiner performs proactive random examinations of peers' published
// evaluation lists and flags peers whose answers drift implausibly between
// examinations.
type Examiner struct {
	// Threshold is the mean absolute per-file difference between two
	// examinations above which the peer is flagged. Honest re-votes move
	// a few files slightly; a mimic tracking different victims rewrites
	// wholesale.
	threshold float64
	// MinOverlap is the minimum number of co-present files two snapshots
	// must share before a verdict is issued.
	minOverlap int
	history    map[int]map[eval.FileID]float64
	flagged    map[int]struct{}
}

// NewExaminer builds an examiner. threshold must lie in (0, 1];
// minOverlap >= 1.
func NewExaminer(threshold float64, minOverlap int) (*Examiner, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, errors.New("security: threshold outside (0, 1]")
	}
	if minOverlap < 1 {
		return nil, errors.New("security: minOverlap must be >= 1")
	}
	return &Examiner{
		threshold:  threshold,
		minOverlap: minOverlap,
		history:    make(map[int]map[eval.FileID]float64),
		flagged:    make(map[int]struct{}),
	}, nil
}

// Verdict is the outcome of one examination.
type Verdict struct {
	// Drift is the mean absolute difference on co-present files; NaN on
	// the first examination or insufficient overlap.
	Drift float64
	// Compared is the number of co-present files.
	Compared int
	// Flagged reports whether the peer is now considered a forger.
	Flagged bool
}

// Examine compares the peer's currently published list against the
// previous examination and records the new snapshot. Once flagged, a peer
// stays flagged (the paper's "he should be punished").
func (x *Examiner) Examine(peer int, list map[eval.FileID]float64) Verdict {
	prev, seen := x.history[peer]
	snap := make(map[eval.FileID]float64, len(list))
	for f, v := range list {
		snap[f] = v
	}
	x.history[peer] = snap

	v := Verdict{Drift: math.NaN()}
	if seen {
		// Sum in ascending file order, so the drift has the same bits on
		// every run.
		shared := make([]eval.FileID, 0, len(prev))
		for f := range prev {
			if _, ok := snap[f]; ok {
				shared = append(shared, f)
			}
		}
		slices.Sort(shared)
		var sum float64
		for _, f := range shared {
			sum += math.Abs(snap[f] - prev[f])
		}
		v.Compared = len(shared)
		if v.Compared >= x.minOverlap {
			v.Drift = sum / float64(v.Compared)
			if v.Drift > x.threshold {
				x.flagged[peer] = struct{}{}
			}
		}
	}
	_, bad := x.flagged[peer]
	v.Flagged = bad
	return v
}

// IsFlagged reports whether a peer has ever been flagged.
func (x *Examiner) IsFlagged(peer int) bool {
	_, bad := x.flagged[peer]
	return bad
}

// FlaggedPeers returns the number of flagged peers.
func (x *Examiner) FlaggedPeers() int { return len(x.flagged) }

// MimicList is attack 3's behaviour model: it forges an evaluation list
// equal to the victim's, buying undeserved file-based similarity. A mimic
// that rotates victims between probes is what the Examiner catches.
func MimicList(victim map[eval.FileID]float64) map[eval.FileID]float64 {
	out := make(map[eval.FileID]float64, len(victim))
	for f, v := range victim {
		out[f] = v
	}
	return out
}

// CliqueConfig describes a collusion clique for experiment E3.
type CliqueConfig struct {
	// Members are the colluding peers.
	Members []int
	// MutualRating is the UT value members assign each other.
	MutualRating float64
	// FakeDownloads is how many fabricated download reports each ordered
	// member pair files to inflate DM.
	FakeDownloads int
	// FakeDownloadSize is the claimed size of each fabricated download.
	FakeDownloadSize int64
	// AgreeOnFiles makes members publish identical evaluations for the
	// given number of synthetic files, manufacturing FM similarity.
	AgreeOnFiles int
}

// DefaultCliqueConfig returns an aggressive clique: maximum mutual
// ratings, heavy fabricated traffic, and manufactured file agreement.
func DefaultCliqueConfig(members []int) CliqueConfig {
	return CliqueConfig{
		Members:          members,
		MutualRating:     1.0,
		FakeDownloads:    10,
		FakeDownloadSize: 1 << 28, // 256 MiB per claimed download
		AgreeOnFiles:     20,
	}
}

// Validate checks the clique configuration.
func (c CliqueConfig) Validate() error {
	if len(c.Members) < 2 {
		return errors.New("security: clique needs at least 2 members")
	}
	if c.MutualRating < 0 || c.MutualRating > 1 {
		return errors.New("security: mutual rating outside [0,1]")
	}
	if c.FakeDownloads < 0 || c.AgreeOnFiles < 0 {
		return errors.New("security: negative attack intensity")
	}
	if c.FakeDownloads > 0 && c.FakeDownloadSize <= 0 {
		return errors.New("security: fake downloads need a positive size")
	}
	return nil
}

// InjectClique wires the clique's forged evidence into the trust engine:
// mutual top ratings (UM), fabricated download volume (DM), and identical
// evaluations on synthetic files (FM). Returns the synthetic file IDs so
// the experiment can exclude them from legitimate catalogues.
func InjectClique(e *core.Sharded, cfg CliqueConfig, rng *sim.RNG, now time.Duration) ([]eval.FileID, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("security: nil rng")
	}
	for _, i := range cfg.Members {
		for _, j := range cfg.Members {
			if i == j {
				continue
			}
			if cfg.MutualRating > 0 {
				if err := e.RateUser(i, j, cfg.MutualRating); err != nil {
					return nil, fmt.Errorf("security: clique rating: %w", err)
				}
			}
			for d := 0; d < cfg.FakeDownloads; d++ {
				f := eval.FileID(fmt.Sprintf("clique-traffic-%d-%d-%d", i, j, d))
				if err := e.RecordDownload(i, j, f, cfg.FakeDownloadSize, now); err != nil {
					return nil, fmt.Errorf("security: clique download: %w", err)
				}
				if err := e.Vote(i, f, 1.0, now); err != nil {
					return nil, fmt.Errorf("security: clique vote: %w", err)
				}
			}
		}
	}
	files := make([]eval.FileID, 0, cfg.AgreeOnFiles)
	for k := 0; k < cfg.AgreeOnFiles; k++ {
		f := eval.FileID(fmt.Sprintf("clique-agreement-%d", k))
		files = append(files, f)
		value := rng.Float64()
		for _, m := range cfg.Members {
			if err := e.Vote(m, f, value, now); err != nil {
				return nil, fmt.Errorf("security: clique agreement: %w", err)
			}
		}
	}
	return files, nil
}

// CliqueGain measures how much reputation an honest observer assigns to
// clique members versus honest peers: the ratio of the mean clique
// reputation to the mean honest reputation in the observer's multi-trust
// view. A gain near zero means the attack failed.
func CliqueGain(reps map[int]float64, clique, honest []int) float64 {
	mean := func(peers []int) float64 {
		if len(peers) == 0 {
			return 0
		}
		sum := 0.0
		for _, p := range peers {
			sum += reps[p]
		}
		return sum / float64(len(peers))
	}
	h := mean(honest)
	if h == 0 {
		return math.Inf(1)
	}
	return mean(clique) / h
}
