package sparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// The CSR kernels fix their floating-point order, and journal replay
// (internal/journal) depends on it: a recovered engine must reproduce
// the pre-crash matrices exactly. These tests compare each kernel with
// ==, entry for entry, against mapMatrix, an oracle written the textbook
// way over map rows that shares no arithmetic with csr.go.

// mapMatrix is the oracle: an n×n matrix held as one map per row. Each
// kernel sums in ascending inner-index order, the order the CSR kernels
// promise.
type mapMatrix []map[int]float64

// randomMap builds an n×n oracle matrix with about fill entries per row.
func randomMap(rng *rand.Rand, n, fill int) mapMatrix {
	m := make(mapMatrix, n)
	for i := range m {
		m[i] = make(map[int]float64, fill)
		for k := 0; k < fill; k++ {
			m[i][rng.Intn(n)] = rng.Float64()
		}
	}
	return m
}

// ascending returns a row's columns in ascending order.
func ascending(row map[int]float64) []int {
	cols := make([]int, 0, len(row))
	for j := range row {
		cols = append(cols, j)
	}
	sort.Ints(cols)
	return cols
}

// freeze returns m as a CSR, unnormalised.
func (m mapMatrix) freeze() *CSR {
	rows := make([]Row, len(m))
	for i, row := range m {
		for _, j := range ascending(row) {
			rows[i].Cols = append(rows[i].Cols, int32(j))
			rows[i].Vals = append(rows[i].Vals, row[j])
		}
	}
	return assemble(rows)
}

// entries lists m's stored entries sorted by (row, col).
func (m mapMatrix) entries() []Entry {
	var out []Entry
	for i, row := range m {
		for _, j := range ascending(row) {
			out = append(out, Entry{Row: i, Col: j, Val: row[j]})
		}
	}
	return out
}

// normalized divides each row by its sum, summed in ascending column
// order; a row whose sum is not positive comes back empty.
func (m mapMatrix) normalized() mapMatrix {
	out := make(mapMatrix, len(m))
	for i, row := range m {
		sum := 0.0
		for _, j := range ascending(row) {
			sum += row[j]
		}
		if sum <= 0 {
			continue
		}
		out[i] = make(map[int]float64, len(row))
		for j, v := range row {
			out[i][j] = v / sum
		}
	}
	return out
}

// mul returns m·o. Each output entry sums over ascending inner index;
// entries that sum to exactly zero are kept.
func (m mapMatrix) mul(o mapMatrix) mapMatrix {
	out := make(mapMatrix, len(m))
	for i, row := range m {
		acc := make(map[int]float64)
		for _, k := range ascending(row) {
			for j, v := range o[k] {
				acc[j] += row[k] * v
			}
		}
		out[i] = acc
	}
	return out
}

// pow returns m^k by square-and-multiply: the running result, initially
// m, times m^(2^b) for each set bit b of k−1, lowest bit first.
func (m mapMatrix) pow(k int) mapMatrix {
	result, sq := m, m
	for e := k - 1; e > 0; e >>= 1 {
		if e&1 == 1 {
			result = result.mul(sq)
		}
		if e > 1 {
			sq = sq.mul(sq)
		}
	}
	return result
}

// rowVecPow returns row i of m^k by k−1 row-vector products, skipping
// intermediate entries that are exactly zero.
func (m mapMatrix) rowVecPow(i, k int) map[int]float64 {
	cur := make(map[int]float64, len(m[i]))
	for j, v := range m[i] {
		cur[j] = v
	}
	for step := 1; step < k; step++ {
		next := make(map[int]float64, len(cur))
		for _, mid := range ascending(cur) {
			if w := cur[mid]; w != 0 {
				for j, v := range m[mid] {
					next[j] += w * v
				}
			}
		}
		cur = next
	}
	return cur
}

// addScaled returns Σ scales[t]·terms[t]: each entry accumulates from
// zero in term order, terms with a zero scale are skipped, and entries
// that end at exactly zero are dropped.
func addScaled(scales []float64, terms ...mapMatrix) mapMatrix {
	out := make(mapMatrix, len(terms[0]))
	for t, m := range terms {
		if scales[t] == 0 {
			continue
		}
		for i, row := range m {
			if out[i] == nil {
				out[i] = make(map[int]float64)
			}
			for j, v := range row {
				out[i][j] += scales[t] * v
			}
		}
	}
	for _, row := range out {
		for j, v := range row {
			if v == 0 {
				delete(row, j)
			}
		}
	}
	return out
}

// mustEqualEntries fails unless the two entry lists are identical,
// including bit-identical float values.
func mustEqualEntries(t *testing.T, label string, want, got []Entry) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for k := range want {
		if want[k] != got[k] {
			t.Fatalf("%s: entry %d = %+v, want %+v", label, k, got[k], want[k])
		}
	}
}

// TestFreezeRoundTrip checks the CSR accessors against the map rows a
// matrix was frozen from: Entries, NNZ, RowNNZ, RowSum and every Get.
func TestFreezeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		m := randomMap(rng, n, 1+rng.Intn(8))
		c := m.freeze()
		want := m.entries()
		mustEqualEntries(t, "freeze", want, c.Entries())
		if c.NNZ() != len(want) {
			t.Fatalf("NNZ %d, want %d", c.NNZ(), len(want))
		}
		for i, row := range m {
			if c.RowNNZ(i) != len(row) {
				t.Fatalf("RowNNZ(%d) = %d, want %d", i, c.RowNNZ(i), len(row))
			}
			sum := 0.0
			for _, j := range ascending(row) {
				sum += row[j]
			}
			if c.RowSum(i) != sum {
				t.Fatalf("RowSum(%d) = %v, want %v", i, c.RowSum(i), sum)
			}
			for j := 0; j < n; j++ {
				if got, want := c.Get(i, j), row[j]; got != want {
					t.Fatalf("Get(%d,%d) = %v, want %v", i, j, got, want)
				}
			}
		}
	}
}

func TestFreezeNormalizedMatchesMapNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(50)
		m := randomMap(rng, n, 1+rng.Intn(6))
		// Mix in a row that normalises away: a negative sum must clear.
		if n > 2 {
			m[0][1], m[0][2] = -1, -2
		}
		got := FreezeNormalized(n, m)
		mustEqualEntries(t, "FreezeNormalized", m.normalized().entries(), got.Entries())
	}
}

func TestWeightedSumMatchesAddScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		a := randomMap(rng, n, 2).normalized()
		b := randomMap(rng, n, 2).normalized()
		c := randomMap(rng, n, 2).normalized()
		weights := []float64{rng.Float64(), rng.Float64(), 0.2}
		if trial%3 == 0 {
			weights[1] = 0 // zero-weight terms must be skipped entirely
		}
		ra, rb, rc := rowsOf(a.freeze()), rowsOf(b.freeze()), rowsOf(c.freeze())
		got, err := WeightedSum(nil, n, allRows(n), []Weighted{
			{weights[0], ra},
			{weights[1], rb},
			{weights[2], rc},
		})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualEntries(t, "WeightedSum", addScaled(weights, a, b, c).entries(), got.Entries())
		// WeightedRow is the same kernel, one row at a time.
		for i := 0; i < n; i++ {
			row := WeightedRow(weights, []Row{ra[i], rb[i], rc[i]})
			cols, vals := got.Row(i)
			if fmt.Sprint(row.Cols, row.Vals) != fmt.Sprint(cols, vals) {
				t.Fatalf("WeightedRow(%d) = %v %v, WeightedSum row %v %v", i, row.Cols, row.Vals, cols, vals)
			}
		}
	}
}

// TestWeightedSumPatchMatchesFull patches a sum in the rows whose terms
// changed, several times over, and requires the bytes of a full build of
// the same terms after every patch. The matrix patched from must stay
// byte-unchanged, and the patch must not depend on GOMAXPROCS: 300 dirty
// rows span several of the kernel's 128-row blocks.
func TestWeightedSumPatchMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 700
	terms := make([]Weighted, 3)
	for k := range terms {
		terms[k] = Weighted{Scale: 0.25 * float64(k+1), Rows: rowsOf(FreezeNormalized(n, randomMap(rng, n, 3)))}
	}
	prev, err := WeightedSum(nil, n, allRows(n), terms)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 6; step++ {
		fresh := rowsOf(FreezeNormalized(n, randomMap(rng, n, 1+step)))
		seen := make(map[int]bool)
		var dirty []int
		for len(dirty) < 50*step {
			if i := rng.Intn(n); !seen[i] {
				seen[i] = true
				dirty = append(dirty, i)
			}
		}
		sort.Ints(dirty)
		k := rng.Intn(len(terms))
		for _, i := range dirty {
			if rng.Intn(3) > 0 { // some dirty rows keep their terms
				terms[k].Rows[i] = fresh[i]
			}
		}
		before := csrBytes(prev)
		var got [2]*CSR
		for g, procs := range []int{1, 4} {
			old := runtime.GOMAXPROCS(procs)
			got[g], err = WeightedSum(prev, n, dirty, terms)
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatal(err)
			}
		}
		want, err := WeightedSum(nil, n, allRows(n), terms)
		if err != nil {
			t.Fatal(err)
		}
		for g, c := range got {
			if csrBytes(c) != csrBytes(want) {
				t.Fatalf("step %d, variant %d: patched sum differs from a full build", step, g)
			}
		}
		if csrBytes(prev) != before {
			t.Fatalf("step %d: patching changed the matrix patched from", step)
		}
		prev = got[0]
	}
}

// rowsOf returns c's rows as frozen Rows aliasing c's storage.
func rowsOf(c *CSR) []Row {
	out := make([]Row, c.N())
	for i := range out {
		out[i].Cols, out[i].Vals = c.Row(i)
	}
	return out
}

// allRows lists [0, n), the dirty set of a full build.
func allRows(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// csrBytes renders a CSR's arrays exactly, for byte comparisons.
func csrBytes(c *CSR) string {
	return fmt.Sprintf("%d %v %v %v", c.n, c.rowPtr, c.cols, c.vals)
}

func TestCSRMulMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(60)
		a := randomMap(rng, n, 1+rng.Intn(5))
		b := randomMap(rng, n, 1+rng.Intn(5))
		got, err := a.freeze().Mul(b.freeze())
		if err != nil {
			t.Fatal(err)
		}
		mustEqualEntries(t, "Mul", a.mul(b).entries(), got.Entries())
	}
}

func TestCSRPowMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(30)
		m := randomMap(rng, n, 1+rng.Intn(4)).normalized()
		c := m.freeze()
		for k := 1; k <= 6; k++ {
			got, err := c.Pow(k)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualEntries(t, "Pow", m.pow(k).entries(), got.Entries())
		}
	}
}

func TestCSRRowVecPowMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(30)
		m := randomMap(rng, n, 1+rng.Intn(4)).normalized()
		c := m.freeze()
		for k := 1; k <= 4; k++ {
			for i := 0; i < n; i += 1 + n/7 {
				ref := m.rowVecPow(i, k)
				got, err := c.RowVecPow(i, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(ref) != len(got) {
					t.Fatalf("RowVecPow(%d,%d): %d entries, want %d", i, k, len(got), len(ref))
				}
				for j, v := range ref {
					if got[j] != v {
						t.Fatalf("RowVecPow(%d,%d)[%d] = %v, want %v", i, k, j, got[j], v)
					}
				}
			}
		}
	}
}

// TestCSRMulLargeParallel forces the worker pool past the inline-run
// threshold so the parallel path itself is exercised against the
// sequential oracle.
func TestCSRMulLargeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 700 // > rowBlock, several blocks per worker
	a := randomMap(rng, n, 6)
	b := randomMap(rng, n, 6)
	got, err := a.freeze().Mul(b.freeze())
	if err != nil {
		t.Fatal(err)
	}
	mustEqualEntries(t, "parallel Mul", a.mul(b).entries(), got.Entries())
}

// TestCSRErrors covers WeightedSum's argument checks; TestMulErrors,
// TestPowRejectsBadExponent and TestRowVecPowErrors cover the others.
func TestCSRErrors(t *testing.T) {
	c := FreezeNormalized(2, nil)
	other := FreezeNormalized(3, nil)
	if _, err := WeightedSum(nil, 2, allRows(2), []Weighted{{1, rowsOf(other)}}); err == nil {
		t.Fatal("WeightedSum dimension mismatch accepted")
	}
	if _, err := WeightedSum(nil, 2, allRows(2), []Weighted{{1, nil}}); err == nil {
		t.Fatal("WeightedSum nil rows accepted")
	}
	if _, err := WeightedSum(other, 2, allRows(2), []Weighted{{1, rowsOf(c)}}); err == nil {
		t.Fatal("WeightedSum patch of a matrix of another dimension accepted")
	}
	for _, dirty := range [][]int{{1, 0}, {0, 0}, {2}, {-1}} {
		if _, err := WeightedSum(c, 2, dirty, []Weighted{{1, rowsOf(c)}}); err == nil {
			t.Fatalf("WeightedSum dirty rows %v accepted", dirty)
		}
	}
}
