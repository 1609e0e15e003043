// Package eigentrust implements the EigenTrust algorithm (Kamvar,
// Schlosser, Garcia-Molina, WWW 2003), the global-reputation baseline the
// paper compares against (§2). Each peer i normalises its local trust
// values c_ij; the global trust vector is the left principal eigenvector
// of the matrix C, computed by power iteration with the standard
// pre-trusted-peer damping:
//
//	t⁽ᵏ⁺¹⁾ = (1−a)·Cᵀ·t⁽ᵏ⁾ + a·p
//
// where p is the distribution over pre-trusted peers and a the damping
// weight. Q. Lian et al. found this suffers both false positives (slow
// reaction to new polluters) and false negatives (penalising unknown but
// honest peers) — behaviour experiment E3 reproduces.
package eigentrust

import (
	"errors"
	"fmt"
	"math"

	"mdrep/internal/sparse"
)

// Config holds the algorithm's parameters.
type Config struct {
	// PreTrusted is the set of peers given a-priori trust (the paper's
	// "P" set); it must be non-empty.
	PreTrusted []int
	// Damping is the weight a of the pre-trusted distribution; the
	// EigenTrust paper uses 0.1–0.2.
	Damping float64
	// Epsilon is the L1 convergence threshold of power iteration.
	Epsilon float64
	// MaxIterations bounds power iteration.
	MaxIterations int
}

// DefaultConfig returns the parameters of the original paper.
func DefaultConfig(preTrusted []int) Config {
	return Config{
		PreTrusted:    preTrusted,
		Damping:       0.15,
		Epsilon:       1e-9,
		MaxIterations: 200,
	}
}

// Validate checks parameters against a population of size n.
func (c Config) Validate(n int) error {
	if len(c.PreTrusted) == 0 {
		return errors.New("eigentrust: need at least one pre-trusted peer")
	}
	for _, p := range c.PreTrusted {
		if p < 0 || p >= n {
			return fmt.Errorf("eigentrust: pre-trusted peer %d outside [0, %d)", p, n)
		}
	}
	if c.Damping < 0 || c.Damping > 1 {
		return errors.New("eigentrust: damping outside [0,1]")
	}
	if c.Epsilon <= 0 {
		return errors.New("eigentrust: non-positive epsilon")
	}
	if c.MaxIterations < 1 {
		return errors.New("eigentrust: need at least one iteration")
	}
	return nil
}

// Result carries the converged global trust vector.
type Result struct {
	// Trust is the global trust value per peer; it sums to 1.
	Trust []float64
	// Iterations is how many power steps ran.
	Iterations int
	// Converged reports whether Epsilon was reached within
	// MaxIterations.
	Converged bool
}

// Compute runs power iteration on the row-normalised local trust matrix c
// (c.Get(i, j) is how much i trusts j). Rows that are entirely empty are
// treated as trusting the pre-trusted set, the standard EigenTrust fix for
// dangling rows.
func Compute(c *sparse.CSR, cfg Config) (*Result, error) {
	n := c.N()
	if n == 0 {
		return nil, errors.New("eigentrust: empty matrix")
	}
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	if d := c.MaxRowSumDelta(); d > 1e-6 {
		return nil, fmt.Errorf("eigentrust: matrix not row-stochastic (delta %v)", d)
	}
	p := make([]float64, n)
	for _, pt := range cfg.PreTrusted {
		p[pt] += 1 / float64(len(cfg.PreTrusted))
	}
	// Start from the pre-trust distribution, as in the original paper.
	t := make([]float64, n)
	copy(t, p)

	danglingRows := make([]int, 0)
	for i := 0; i < n; i++ {
		if c.RowNNZ(i) == 0 {
			danglingRows = append(danglingRows, i)
		}
	}

	res := &Result{}
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		// next = tᵀ·C: each next[j] sums t_i·c_ij over ascending i.
		next := make([]float64, n)
		for i, ti := range t {
			if ti == 0 {
				continue
			}
			cols, vals := c.Row(i)
			for k, j := range cols {
				next[j] += ti * vals[k]
			}
		}
		// Dangling rows redistribute their mass over the pre-trusted set.
		var danglingMass float64
		for _, i := range danglingRows {
			danglingMass += t[i]
		}
		for j := range next {
			next[j] = (1-cfg.Damping)*(next[j]+danglingMass*p[j]) + cfg.Damping*p[j]
		}
		delta := 0.0
		for j := range next {
			delta += math.Abs(next[j] - t[j])
		}
		t = next
		res.Iterations = iter + 1
		if delta < cfg.Epsilon {
			res.Converged = true
			break
		}
	}
	// Normalise away numerical drift so Trust is exactly a distribution.
	sum := 0.0
	for _, v := range t {
		sum += v
	}
	if sum > 0 {
		for i := range t {
			t[i] /= sum
		}
	}
	res.Trust = t
	return res, nil
}

// LocalTrustFromSatisfaction builds the row-normalised local trust matrix
// from satisfaction counts: c_ij = max(sat_ij − unsat_ij, 0), normalised
// per row — the construction of the original paper's §4.1. sat[i] and
// unsat[i] map peer j to rater i's raw counts; both ledgers must cover
// the same n peers, and every column must lie in [0, n).
func LocalTrustFromSatisfaction(sat, unsat []map[int]float64) (*sparse.CSR, error) {
	n := len(sat)
	if len(unsat) != n {
		return nil, fmt.Errorf("eigentrust: dimension mismatch %d vs %d", n, len(unsat))
	}
	net := make([]map[int]float64, n)
	for i := range sat {
		for _, row := range []map[int]float64{sat[i], unsat[i]} {
			for j := range row {
				if j < 0 || j >= n {
					return nil, fmt.Errorf("eigentrust: peer %d rates peer %d outside [0, %d)", i, j, n)
				}
			}
		}
		for j, s := range sat[i] {
			if v := s - unsat[i][j]; v > 0 {
				if net[i] == nil {
					net[i] = make(map[int]float64)
				}
				net[i][j] = v
			}
		}
	}
	return sparse.FreezeNormalized(n, net), nil
}
