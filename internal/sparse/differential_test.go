package sparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// The CSR kernels promise bit-identical results to the map-backed
// reference implementation — not approximately equal: journal replay
// (internal/journal) rebuilds matrices through whichever path the engine
// uses and must reproduce the pre-crash state exactly. These tests build
// random matrices and compare entry-for-entry with ==.

// randomMatrix builds an n×n matrix with ~fill entries per row.
func randomMatrix(rng *rand.Rand, n, fill int) *Matrix {
	m := New(n)
	for i := 0; i < n; i++ {
		for k := 0; k < fill; k++ {
			m.Set(i, rng.Intn(n), rng.Float64())
		}
	}
	return m
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

func TestFreezeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		m := randomMatrix(rng, n, 1+rng.Intn(8))
		c := m.Freeze()
		mustEqualEntries(t, "freeze", m.Entries(), c.Entries())
		mustEqualEntries(t, "thaw", m.Entries(), c.Thaw().Entries())
		if c.NNZ() != m.NNZ() {
			t.Fatalf("NNZ %d, want %d", c.NNZ(), m.NNZ())
		}
		for i := -1; i <= n; i++ {
			for j := -1; j <= n; j++ {
				if got, want := c.Get(i, j), m.Get(i, j); got != want {
					t.Fatalf("Get(%d,%d) = %v, want %v", i, j, got, want)
				}
			}
		}
	}
}

func TestCSRRowNormalizeMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(50)
		m := randomMatrix(rng, n, 1+rng.Intn(6))
		// Mix in rows that normalise away: all-negative sums must clear.
		if n > 2 {
			m.Set(0, 1, -1)
			m.Set(0, 2, -2)
		}
		fromCSR := m.Freeze().RowNormalize()
		ref := m.Clone().RowNormalize()
		mustEqualEntries(t, "RowNormalize", ref.Entries(), fromCSR.Entries())
	}
}

func TestFreezeNormalizedMatchesMapNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(50)
		m := randomMatrix(rng, n, 1+rng.Intn(6))
		rows := make([]map[int]float64, n)
		for i := 0; i < n; i++ {
			rows[i] = m.RowCopy(i)
		}
		got := FreezeNormalized(n, rows)
		ref := m.Clone().RowNormalize()
		mustEqualEntries(t, "FreezeNormalized", ref.Entries(), got.Entries())
	}
}

func TestWeightedSumMatchesAddScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		a := randomMatrix(rng, n, 2).RowNormalize()
		b := randomMatrix(rng, n, 2).RowNormalize()
		c := randomMatrix(rng, n, 2).RowNormalize()
		weights := [3]float64{rng.Float64(), rng.Float64(), 0.2}
		if trial%3 == 0 {
			weights[1] = 0 // zero-weight terms must be skipped entirely
		}
		ref := New(n)
		for k, m := range []*Matrix{a, b, c} {
			if err := ref.AddScaled(weights[k], m); err != nil {
				t.Fatal(err)
			}
		}
		got, err := WeightedSum(nil, n, allRows(n), []Weighted{
			{weights[0], rowsOf(a.Freeze())},
			{weights[1], rowsOf(b.Freeze())},
			{weights[2], rowsOf(c.Freeze())},
		})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualEntries(t, "WeightedSum", ref.Entries(), got.Entries())
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
		terms[k] = Weighted{Scale: 0.25 * float64(k+1), Rows: rowsOf(randomMatrix(rng, n, 3).RowNormalize().Freeze())}
	}
	prev, err := WeightedSum(nil, n, allRows(n), terms)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 6; step++ {
		fresh := rowsOf(randomMatrix(rng, n, 1+step).RowNormalize().Freeze())
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
		a := randomMatrix(rng, n, 1+rng.Intn(5))
		b := randomMatrix(rng, n, 1+rng.Intn(5))
		ref, err := a.Mul(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Freeze().Mul(b.Freeze())
		if err != nil {
			t.Fatal(err)
		}
		mustEqualEntries(t, "Mul", ref.Entries(), got.Entries())
	}
}

func TestCSRPowMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(30)
		m := randomMatrix(rng, n, 1+rng.Intn(4)).RowNormalize()
		c := m.Freeze()
		for k := 1; k <= 6; k++ {
			ref, err := m.Pow(k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Pow(k)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualEntries(t, "Pow", ref.Entries(), got.Entries())
		}
	}
}

func TestCSRRowVecPowMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(30)
		m := randomMatrix(rng, n, 1+rng.Intn(4)).RowNormalize()
		c := m.Freeze()
		for k := 1; k <= 4; k++ {
			for i := 0; i < n; i += 1 + n/7 {
				ref, err := m.RowVecPow(i, k)
				if err != nil {
					t.Fatal(err)
				}
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
// sequential reference.
func TestCSRMulLargeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 700 // > rowBlock, several blocks per worker
	a := randomMatrix(rng, n, 6)
	b := randomMatrix(rng, n, 6)
	ref, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Freeze().Mul(b.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	mustEqualEntries(t, "parallel Mul", ref.Entries(), got.Entries())
}

func TestCSRMulVecMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 40
	m := randomMatrix(rng, n, 4)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	ref, err := m.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Freeze().MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	// Matrix.MulVec accumulates in map-iteration order, so it is only
	// reproducible up to rounding; the CSR path (ascending columns) is the
	// deterministic one. Compare within float tolerance.
	for i := range ref {
		if d := ref[i] - got[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], ref[i])
		}
	}
}

func TestCSRErrors(t *testing.T) {
	c := New(2).Freeze()
	other := New(3).Freeze()
	if _, err := c.Mul(other); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := c.Mul(nil); err == nil {
		t.Fatal("nil operand accepted")
	}
	if _, err := c.Pow(0); err == nil {
		t.Fatal("Pow(0) accepted")
	}
	if _, err := c.RowVecPow(0, 0); err == nil {
		t.Fatal("RowVecPow k=0 accepted")
	}
	if _, err := c.RowVecPow(5, 1); err == nil {
		t.Fatal("RowVecPow out-of-range row accepted")
	}
	if _, err := c.MulVec(make([]float64, 3)); err == nil {
		t.Fatal("MulVec length mismatch accepted")
	}
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

func TestMatrixForEachRow(t *testing.T) {
	m := New(3)
	m.Set(1, 2, 0.5)
	m.Set(1, 0, 0.25)
	var cols []int
	var vals []float64
	m.ForEachRow(1, func(j int, v float64) {
		cols = append(cols, j)
		vals = append(vals, v)
	})
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 || vals[0] != 0.25 || vals[1] != 0.5 {
		t.Fatalf("ForEachRow order/values wrong: %v %v", cols, vals)
	}
	if m.RowNNZ(1) != 2 || m.RowNNZ(0) != 0 {
		t.Fatal("RowNNZ wrong")
	}
}
