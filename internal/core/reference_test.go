package core

import (
	"math"
	"sort"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/sparse"
)

// The from-scratch builders below are the executable specification the
// row store is tested against: incremental_test.go asserts Sharded's
// patched rows and TM match them entry for entry, bit for bit. They work
// over plain row maps (row i maps column j to entry (i, j)) and share no
// arithmetic with fmRow, sparse.NormalizeRow or sparse.WeightedSum: they
// have their own normaliser and their own accumulate.

// buildFMRef constructs the file-based one-step matrix (Eq. 2–3) from
// scratch. For each pair (i, j) with a non-empty co-evaluated set F of
// size m:
//
//	FT_ij = 1 - (1/m)·Σ_{k∈F} |E_ik − E_jk|
//
// then rows are normalised. Construction walks the inverted file index, so
// cost is Σ_f |evaluators(f)|², the actual co-evaluation mass.
func (e *engine) buildFMRef(now time.Duration) []map[int]float64 {
	type pairKey struct{ i, j int }
	sums := make(map[pairKey]float64)
	counts := make(map[pairKey]int)
	// Cache each peer's snapshot once.
	snaps := make([]map[eval.FileID]float64, e.n)
	snap := func(p int) map[eval.FileID]float64 {
		if snaps[p] == nil {
			snaps[p] = e.stores[p].Snapshot(now)
		}
		return snaps[p]
	}
	maxEval := e.cfg.MaxEvaluatorsPerFile
	// Iterate files in sorted order and evaluators in peer order so the
	// floating-point accumulation below is deterministic.
	for _, f := range e.evaluators.sortedFiles() {
		// Collect live evaluators of f.
		var live []int
		var vals []float64
		for _, p := range e.evaluators.peersOf(f) {
			if v, ok := snap(p)[f]; ok {
				live = append(live, p)
				vals = append(vals, v)
			}
		}
		sort.Sort(&evaluatorsByPeer{peers: live, vals: vals})
		if maxEval > 0 && len(live) > maxEval {
			// Deterministic sample: keep a strided subset of the ordered
			// evaluators so the kept set is stable across rebuilds and
			// spans the index range.
			stride := float64(len(live)) / float64(maxEval)
			for k := 0; k < maxEval; k++ {
				i := int(float64(k) * stride)
				live[k], vals[k] = live[i], vals[i]
			}
			live, vals = live[:maxEval], vals[:maxEval]
		}
		for a := 0; a < len(live); a++ {
			for b := a + 1; b < len(live); b++ {
				i, j := live[a], live[b]
				if i > j {
					i, j = j, i
				}
				k := pairKey{i, j}
				sums[k] += math.Abs(vals[a] - vals[b])
				counts[k]++
			}
		}
	}
	fm := make([]map[int]float64, e.n)
	for k, c := range counts {
		ft := 1 - sums[k]/float64(c)
		if ft <= 0 {
			continue
		}
		// FT is symmetric; FM is not after row normalisation.
		refSet(fm, k.i, k.j, ft)
		refSet(fm, k.j, k.i, ft)
	}
	return refNormalize(fm)
}

// buildDMRef constructs the download-volume matrix (Eq. 4–5) from scratch.
func (e *engine) buildDMRef(now time.Duration) []map[int]float64 {
	dm := make([]map[int]float64, e.n)
	floor := e.cfg.Retention.Floor
	for i, per := range e.downloads {
		for j, entries := range per {
			vd := 0.0
			for _, d := range entries {
				ev, ok := e.stores[i].Get(d.File, now)
				if !ok {
					ev = floor
				}
				vd += ev * float64(d.Size)
			}
			if vd > 0 {
				refSet(dm, i, j, vd)
			}
		}
	}
	return refNormalize(dm)
}

// buildUMRef constructs the user-based matrix (Eq. 6) from scratch.
func (e *engine) buildUMRef() []map[int]float64 {
	um := make([]map[int]float64, e.n)
	for i, per := range e.userTrust {
		for j, v := range per {
			if v > 0 {
				refSet(um, i, j, v)
			}
		}
	}
	return refNormalize(um)
}

// buildTMRef integrates the reference dimensions from scratch (Eq. 7).
func (e *engine) buildTMRef(now time.Duration) []map[int]float64 {
	tm := make([]map[int]float64, e.n)
	refAccumulate(tm, e.cfg.Alpha, e.buildFMRef(now))
	refAccumulate(tm, e.cfg.Beta, e.buildDMRef(now))
	refAccumulate(tm, e.cfg.Gamma, e.buildUMRef())
	return tm
}

// refSet stores entry (i, j) of a row-map matrix.
func refSet(rows []map[int]float64, i, j int, v float64) {
	if rows[i] == nil {
		rows[i] = make(map[int]float64)
	}
	rows[i][j] = v
}

// refCols returns a row's columns in ascending order.
func refCols(row map[int]float64) []int {
	cols := make([]int, 0, len(row))
	for j := range row {
		cols = append(cols, j)
	}
	sort.Ints(cols)
	return cols
}

// refNormalize divides each row by its sum, accumulated in ascending
// column order, and empties a row whose sum is zero or negative: the
// row normalisation of Eqs. (3), (5) and (6).
func refNormalize(rows []map[int]float64) []map[int]float64 {
	for i, row := range rows {
		sum := 0.0
		for _, j := range refCols(row) {
			sum += row[j]
		}
		if sum <= 0 {
			rows[i] = nil
			continue
		}
		for j, v := range row {
			row[j] = v / sum
		}
	}
	return rows
}

// refAccumulate adds s·src into dst entry by entry. A zero s adds
// nothing, and an entry whose sum reaches exactly zero is removed.
func refAccumulate(dst []map[int]float64, s float64, src []map[int]float64) {
	if s == 0 {
		return
	}
	for i, row := range src {
		for j, v := range row {
			if sum := dst[i][j] + s*v; sum != 0 {
				refSet(dst, i, j, sum)
			} else {
				delete(dst[i], j)
			}
		}
	}
}

// refEntries flattens a row-map matrix into entries sorted by (row, col).
func refEntries(rows []map[int]float64) []sparse.Entry {
	var out []sparse.Entry
	for i, row := range rows {
		for _, j := range refCols(row) {
			out = append(out, sparse.Entry{Row: i, Col: j, Val: row[j]})
		}
	}
	return out
}

// fileCount returns the number of indexed files.
func (x *evalIndex) fileCount() int {
	n := 0
	for i := range x.stripes {
		s := &x.stripes[i]
		s.mu.Lock()
		n += len(s.files)
		s.mu.Unlock()
	}
	return n
}

// sortedFiles returns every indexed file ID in ascending order — the
// iteration order the reference FM build fixes its float accumulation
// to.
func (x *evalIndex) sortedFiles() []eval.FileID {
	var out []eval.FileID
	for i := range x.stripes {
		s := &x.stripes[i]
		s.mu.Lock()
		for f := range s.files {
			out = append(out, f)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// peersOf returns every indexed evaluator of f, in map order.
func (x *evalIndex) peersOf(f eval.FileID) []int {
	s := x.stripeOf(f)
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	if ent := s.files[f]; ent != nil {
		for p := range ent.peers {
			out = append(out, p)
		}
	}
	return out
}

// evaluatorsByPeer sorts parallel (peer, value) slices by peer index.
type evaluatorsByPeer struct {
	peers []int
	vals  []float64
}

func (s *evaluatorsByPeer) Len() int           { return len(s.peers) }
func (s *evaluatorsByPeer) Less(i, j int) bool { return s.peers[i] < s.peers[j] }
func (s *evaluatorsByPeer) Swap(i, j int) {
	s.peers[i], s.peers[j] = s.peers[j], s.peers[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}
