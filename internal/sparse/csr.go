// Package sparse implements the sparse row-oriented matrix behind the
// paper's trust algebra: row normalisation (Eq. 3, 5, 6), weighted
// integration TM = α·FM + β·DM + γ·UM (Eq. 7), and the multi-trust power
// RM = TM^n (Eq. 8), evaluated either as full sparse matrix products or as
// repeated row-vector products for single-peer queries.
package sparse

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// CSR is an immutable n×n sparse matrix in compressed-sparse-row form:
// row i's entries live at positions [rowPtr[i], rowPtr[i+1]) of the
// parallel cols/vals arrays, with columns in ascending order. Matrices
// are square because trust matrices relate peers to peers. Readers may
// use a CSR concurrently without synchronisation, which is what
// core.Sharded's lock-free read path relies on.
//
// Every kernel fixes its floating-point order: each output entry
// accumulates its contributions in ascending inner-index order, and the
// row-block worker pool assigns each output row to exactly one worker,
// so results do not depend on GOMAXPROCS, scheduling or map iteration.
// Journal replay (internal/journal) depends on this: a recovered engine
// must rebuild bit-identical matrices.
type CSR struct {
	n      int
	rowPtr []int32
	cols   []int32
	vals   []float64
}

// Entry is one stored matrix element.
type Entry struct {
	Row int     `json:"row"`
	Col int     `json:"col"`
	Val float64 `json:"val"`
}

// sortedCols returns a row's column indices in ascending order, the
// order in which the trust algebra accumulates a map row's
// floating-point sums, so results do not depend on Go's randomised map
// iteration.
func sortedCols(row map[int]float64) []int {
	cols := make([]int, 0, len(row))
	for j := range row {
		cols = append(cols, j)
	}
	sort.Ints(cols)
	return cols
}

// Row is one frozen matrix row: ascending columns and their values.
// Rows are shared, not copied, between a row store and the kernels that
// read it, so a Row is never modified once built.
type Row struct {
	Cols []int32
	Vals []float64
}

// NormalizeRow is the row normaliser of Eqs. (3), (5) and (6): it
// divides a raw row by its sum, accumulated in ascending column order,
// and returns the empty row when that sum is zero or negative. cols must
// be ascending and unique. vals is divided in place, and the result
// aliases both slices.
func NormalizeRow(cols []int32, vals []float64) Row {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if sum <= 0 {
		return Row{}
	}
	for k := range vals {
		vals[k] /= sum
	}
	return Row{Cols: cols, Vals: vals}
}

// FreezeNormalized freezes raw map rows into a row-normalised CSR: each
// row's columns are sorted ascending and the row goes through
// NormalizeRow. rows may be shorter than n; missing and nil rows freeze
// to empty rows. Every column must lie in [0, n).
func FreezeNormalized(n int, rows []map[int]float64) *CSR {
	ko := kobs.Load()
	defer ko.spanFreeze().End()
	out := make([]Row, n)
	parallelRowBlocks(min(n, len(rows)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := rows[i]
			if len(row) == 0 {
				continue
			}
			keys := sortedCols(row)
			cols := make([]int32, len(keys))
			vals := make([]float64, len(keys))
			for k, j := range keys {
				cols[k], vals[k] = int32(j), row[j]
			}
			out[i] = NormalizeRow(cols, vals)
		}
	})
	return assemble(out)
}

// N returns the dimension.
func (c *CSR) N() int { return c.n }

// NNZ returns the number of stored entries.
func (c *CSR) NNZ() int { return len(c.cols) }

// RowNNZ returns the number of stored entries in row i.
//
//mdrep:hotpath
func (c *CSR) RowNNZ(i int) int {
	if i < 0 || i >= c.n {
		return 0
	}
	return int(c.rowPtr[i+1] - c.rowPtr[i])
}

// Row returns row i's columns (ascending) and values as subslices of the
// matrix's storage. Callers must treat both as read-only.
//
//mdrep:hotpath
func (c *CSR) Row(i int) ([]int32, []float64) {
	if i < 0 || i >= c.n {
		return nil, nil
	}
	lo, hi := c.rowPtr[i], c.rowPtr[i+1]
	return c.cols[lo:hi], c.vals[lo:hi]
}

// RowCopy returns row i's columns and values as freshly allocated slices
// the caller owns. This is the export form for code that hands rows
// across trust boundaries — wire encoding, DHT publication — where an
// aliased subslice of the snapshot's storage must not escape.
func (c *CSR) RowCopy(i int) ([]int32, []float64) {
	cols, vals := c.Row(i)
	if len(cols) == 0 {
		return nil, nil
	}
	outCols := make([]int32, len(cols))
	outVals := make([]float64, len(vals))
	copy(outCols, cols)
	copy(outVals, vals)
	return outCols, outVals
}

// Get returns entry (i, j) by binary search; out-of-range indices read as
// zero.
//
//mdrep:hotpath
func (c *CSR) Get(i, j int) float64 {
	cols, vals := c.Row(i)
	// Open-coded binary search: sort.Search would box its predicate
	// closure on every probe of this kernel.
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cols[mid] < int32(j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && cols[lo] == int32(j) {
		return vals[lo]
	}
	return 0
}

// RowSum returns the sum of row i, accumulated in ascending column order.
//
//mdrep:hotpath
func (c *CSR) RowSum(i int) float64 {
	_, vals := c.Row(i)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum
}

// Weighted is one term of a weighted row sum: Scale times the matrix
// whose row i is Rows[i].
type Weighted struct {
	Scale float64
	Rows  []Row
}

// WeightedSum returns the integration TM = α·FM + β·DM + γ·UM of
// Eq. (7), Σ terms[t].Scale · terms[t].Rows, recomputed in the rows
// listed in dirty (ascending, unique) and copied from prev in every
// other row; with a nil prev those rows are empty. A full build lists
// every row. The result is a new CSR, so a reader holding prev is
// unaffected. Per entry, contributions accumulate from zero in term
// order, terms with a zero scale are skipped entirely (absent evidence
// contributes nothing), and entries whose final value is exactly zero
// are dropped. Every output row is computed by one worker, so the bytes
// do not depend on GOMAXPROCS.
func WeightedSum(prev *CSR, n int, dirty []int, terms []Weighted) (*CSR, error) {
	if prev != nil && prev.n != n {
		return nil, fmt.Errorf("sparse: dimension mismatch %d vs %d", n, prev.n)
	}
	scales := make([]float64, 0, len(terms))
	var live [][]Row
	for _, t := range terms {
		if len(t.Rows) != n {
			return nil, fmt.Errorf("sparse: weighted term has %d rows, want %d", len(t.Rows), n)
		}
		if t.Scale == 0 {
			continue
		}
		scales = append(scales, t.Scale)
		live = append(live, t.Rows)
	}
	for k, i := range dirty {
		if i < 0 || i >= n || (k > 0 && i <= dirty[k-1]) {
			return nil, fmt.Errorf("sparse: dirty row %d at %d is out of range or out of order", i, k)
		}
	}
	rows := make([]Row, len(dirty))
	parallelRowBlocks(len(dirty), func(lo, hi int) {
		// One buffer per block, sized to the sum of the terms' rows, so
		// the appends below never move rows already written.
		size := 0
		for _, i := range dirty[lo:hi] {
			for _, r := range live {
				size += len(r[i].Cols)
			}
		}
		cols := make([]int32, 0, size)
		vals := make([]float64, 0, size)
		heads := make([]Row, len(live))
		for k := lo; k < hi; k++ {
			for t, r := range live {
				heads[t] = r[dirty[k]]
			}
			start := len(cols)
			cols, vals = appendWeightedRow(cols, vals, scales, heads)
			rows[k] = Row{Cols: cols[start:], Vals: vals[start:]}
		}
	})
	return splice(prev, n, dirty, rows), nil
}

// WeightedRow is one row of WeightedSum: Σ scales[t]·rows[t], with the
// same per-entry arithmetic. Rows whose scale is zero are skipped.
func WeightedRow(scales []float64, rows []Row) Row {
	live := make([]float64, 0, len(scales))
	heads := make([]Row, 0, len(rows))
	size := 0
	for t, s := range scales {
		if s != 0 {
			live = append(live, s)
			heads = append(heads, rows[t])
			size += len(rows[t].Cols)
		}
	}
	cols, vals := appendWeightedRow(make([]int32, 0, size), make([]float64, 0, size), live, heads)
	return Row{Cols: cols, Vals: vals}
}

// appendWeightedRow merges the ascending rows in heads, consuming them,
// and appends Σ scales[t]·heads[t] column by column. It is the per-row
// arithmetic of WeightedSum and WeightedRow.
//
//mdrep:hotpath
func appendWeightedRow(cols []int32, vals []float64, scales []float64, heads []Row) ([]int32, []float64) {
	for {
		next := int32(-1)
		for _, h := range heads {
			if len(h.Cols) > 0 && (next < 0 || h.Cols[0] < next) {
				next = h.Cols[0]
			}
		}
		if next < 0 {
			return cols, vals
		}
		v := 0.0
		for t := range heads {
			h := &heads[t]
			if len(h.Cols) > 0 && h.Cols[0] == next {
				v += scales[t] * h.Vals[0]
				h.Cols, h.Vals = h.Cols[1:], h.Vals[1:]
			}
		}
		if v != 0 {
			cols = append(cols, next)
			vals = append(vals, v)
		}
	}
}

// splice assembles an n×n CSR from the rows listed in dirty (ascending,
// rows[k] for dirty[k]) and, between them, runs of prev's rows copied
// verbatim; a nil prev supplies empty rows.
func splice(prev *CSR, n int, dirty []int, rows []Row) *CSR {
	c := &CSR{n: n, rowPtr: make([]int32, n+1)}
	k := 0
	for i := 0; i < n; i++ {
		l := 0
		if k < len(dirty) && dirty[k] == i {
			l = len(rows[k].Cols)
			k++
		} else if prev != nil {
			l = int(prev.rowPtr[i+1] - prev.rowPtr[i])
		}
		c.rowPtr[i+1] = c.rowPtr[i] + int32(l)
	}
	c.cols = make([]int32, c.rowPtr[n])
	c.vals = make([]float64, c.rowPtr[n])
	copyRun := func(lo, hi int) {
		if prev == nil || lo >= hi {
			return
		}
		src, dst := prev.rowPtr[lo], c.rowPtr[lo]
		m := prev.rowPtr[hi] - src
		copy(c.cols[dst:dst+m], prev.cols[src:src+m])
		copy(c.vals[dst:dst+m], prev.vals[src:src+m])
	}
	lo := 0
	for k, i := range dirty {
		copyRun(lo, i)
		copy(c.cols[c.rowPtr[i]:], rows[k].Cols)
		copy(c.vals[c.rowPtr[i]:], rows[k].Vals)
		lo = i + 1
	}
	copyRun(lo, n)
	return c
}

// Mul returns c · other as a new CSR. Output rows are computed
// independently across the worker pool; for each output entry the
// contributions accumulate in ascending k (inner index) order, so the
// product does not depend on worker scheduling. Entries whose
// accumulated value is exactly zero are kept.
func (c *CSR) Mul(other *CSR) (*CSR, error) {
	if other == nil {
		return nil, errors.New("sparse: Mul with nil matrix")
	}
	if other.n != c.n {
		return nil, fmt.Errorf("sparse: dimension mismatch %d vs %d", c.n, other.n)
	}
	ko := kobs.Load()
	defer ko.spanMul().End()
	out := make([]Row, c.n)
	parallelRowBlocksScratch(c.n, func(s *rowScratch, lo, hi int) {
		var rows, nnz uint64
		for i := lo; i < hi; i++ {
			cols, vals := c.Row(i)
			if len(cols) == 0 {
				continue
			}
			s.reset()
			for a, k := range cols {
				mv := vals[a]
				ocols, ovals := other.Row(int(k))
				for b, j := range ocols {
					s.add(j, mv*ovals[b])
				}
				nnz += uint64(len(ocols))
			}
			rows++
			out[i] = s.collect()
		}
		ko.addWork(rows, nnz)
	})
	return assemble(out), nil
}

// Pow returns c^k for k >= 1 by square-and-multiply: the running
// result, initially c, is multiplied by c^(2^b) for each set bit b of
// k−1, lowest bit first. The Mul chain is fixed by k alone, so a power's
// bits depend only on c and k. k == 1 returns the receiver (CSRs are
// immutable).
func (c *CSR) Pow(k int) (*CSR, error) {
	if k < 1 {
		return nil, fmt.Errorf("sparse: Pow needs k >= 1, got %d", k)
	}
	result := c
	k--
	first := true
	sq := c
	for k > 0 {
		if k&1 == 1 {
			var err error
			if first {
				result, err = c.Mul(sq)
				first = false
			} else {
				result, err = result.Mul(sq)
			}
			if err != nil {
				return nil, err
			}
		}
		k >>= 1
		if k > 0 {
			var err error
			sq, err = sq.Mul(sq)
			if err != nil {
				return nil, err
			}
		}
	}
	return result, nil
}

// RowVecPow returns eᵢᵀ · c^k: row i of the k-th power computed with k
// sparse row-vector products, without materialising c^k. Contributions
// to each output entry accumulate in ascending intermediate-index order,
// and intermediate entries that are exactly zero contribute nothing.
func (c *CSR) RowVecPow(i, k int) (map[int]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("sparse: RowVecPow needs k >= 1, got %d", k)
	}
	if i < 0 || i >= c.n {
		return nil, fmt.Errorf("sparse: row %d out of range [0, %d)", i, c.n)
	}
	ko := kobs.Load()
	curCols, curVals := c.Row(i)
	// Copy: later steps reuse the scratch buffers.
	cols := append([]int32(nil), curCols...)
	vals := append([]float64(nil), curVals...)
	s := newRowScratch(c.n)
	for step := 1; step < k; step++ {
		sp := ko.spanStep()
		s.reset()
		var nnz uint64
		for a, mid := range cols {
			w := vals[a]
			if w == 0 {
				continue
			}
			mcols, mvals := c.Row(int(mid))
			for b, j := range mcols {
				s.add(j, w*mvals[b])
			}
			nnz += uint64(len(mcols))
		}
		next := s.collect()
		cols, vals = next.Cols, next.Vals
		ko.addWork(1, nnz)
		sp.End()
	}
	out := make(map[int]float64, len(cols))
	for a, j := range cols {
		out[int(j)] = vals[a]
	}
	return out, nil
}

// MaxRowSumDelta returns the largest |rowSum - 1| over non-empty rows.
func (c *CSR) MaxRowSumDelta() float64 {
	max := 0.0
	for i := 0; i < c.n; i++ {
		if c.RowNNZ(i) == 0 {
			continue
		}
		d := c.RowSum(i) - 1
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Entries returns all stored entries sorted by (row, col).
func (c *CSR) Entries() []Entry {
	out := make([]Entry, 0, len(c.cols))
	for i := 0; i < c.n; i++ {
		cols, vals := c.Row(i)
		for k, j := range cols {
			out = append(out, Entry{Row: i, Col: int(j), Val: vals[k]})
		}
	}
	return out
}

// --- row-block worker pool -------------------------------------------------

// rowBlock is the unit of work the pool hands out. Blocks are coarse
// enough to amortise the atomic fetch yet fine enough to balance skewed
// row costs.
const rowBlock = 128

// parallelRowBlocks runs fn over [0, n) in disjoint half-open blocks
// across GOMAXPROCS workers. Each index is processed by exactly one
// worker, so any per-row computation is deterministic regardless of
// scheduling. Small inputs run inline.
func parallelRowBlocks(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if n <= rowBlock || workers <= 1 {
		fn(0, n)
		return
	}
	if max := (n + rowBlock - 1) / rowBlock; workers > max {
		workers = max
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, rowBlock)) - rowBlock
				if lo >= n {
					return
				}
				hi := lo + rowBlock
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// parallelRowBlocksScratch is parallelRowBlocks with one dense accumulator
// per worker.
func parallelRowBlocksScratch(n int, fn func(s *rowScratch, lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if n <= rowBlock || workers <= 1 {
		fn(newRowScratch(n), 0, n)
		return
	}
	if max := (n + rowBlock - 1) / rowBlock; workers > max {
		workers = max
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newRowScratch(n)
			for {
				lo := int(atomic.AddInt64(&next, rowBlock)) - rowBlock
				if lo >= n {
					return
				}
				hi := lo + rowBlock
				if hi > n {
					hi = n
				}
				fn(s, lo, hi)
			}
		}()
	}
	wg.Wait()
}

// rowScratch is a dense sparse-accumulator for one output row: values plus
// a generation-stamped touched set, so clearing between rows is O(nnz of
// the row), not O(n).
type rowScratch struct {
	acc     []float64
	stamp   []uint32
	gen     uint32
	touched []int32
}

func newRowScratch(n int) *rowScratch {
	return &rowScratch{acc: make([]float64, n), stamp: make([]uint32, n)}
}

//
//mdrep:hotpath
func (s *rowScratch) reset() {
	s.gen++
	s.touched = s.touched[:0]
}

//
//mdrep:hotpath
func (s *rowScratch) add(j int32, v float64) {
	if s.stamp[j] != s.gen {
		s.stamp[j] = s.gen
		s.acc[j] = 0
		s.touched = append(s.touched, j)
	}
	s.acc[j] += v
}

// collect returns the touched entries in ascending column order as fresh
// slices. Entries whose accumulated value is exactly zero are kept.
//
//mdrep:hotpath
func (s *rowScratch) collect() Row {
	slices.Sort(s.touched) // closure-free; sort.Slice would box its less func
	cols := make([]int32, len(s.touched))
	vals := make([]float64, len(s.touched))
	for k, j := range s.touched {
		cols[k], vals[k] = j, s.acc[j]
	}
	return Row{Cols: cols, Vals: vals}
}

// assemble concatenates rows into one CSR of dimension len(rows).
func assemble(rows []Row) *CSR {
	n := len(rows)
	c := &CSR{n: n, rowPtr: make([]int32, n+1)}
	nnz := 0
	for i, r := range rows {
		nnz += len(r.Cols)
		c.rowPtr[i+1] = int32(nnz)
	}
	c.cols = make([]int32, 0, nnz)
	c.vals = make([]float64, 0, nnz)
	for _, r := range rows {
		c.cols = append(c.cols, r.Cols...)
		c.vals = append(c.vals, r.Vals...)
	}
	return c
}
