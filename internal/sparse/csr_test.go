package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"mdrep/internal/sim"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// stochastic returns an n×n row-normalised CSR built from fill draws
// per row, each value lifted by lift above a uniform draw.
func stochastic(rng *sim.RNG, n, fill int, lift float64) *CSR {
	rows := make([]map[int]float64, n)
	for i := range rows {
		rows[i] = make(map[int]float64, fill)
		for k := 0; k < fill; k++ {
			rows[i][rng.Intn(n)] = rng.Float64() + lift
		}
	}
	return FreezeNormalized(n, rows)
}

func TestOutOfRangeIgnored(t *testing.T) {
	c := FreezeNormalized(2, []map[int]float64{{1: 1}})
	for _, ij := range [][2]int{{-1, 0}, {0, -1}, {0, 9}, {5, 0}} {
		if c.Get(ij[0], ij[1]) != 0 {
			t.Fatalf("out-of-range Get(%d,%d) non-zero", ij[0], ij[1])
		}
	}
	for _, i := range []int{-1, 2} {
		if cols, vals := c.Row(i); cols != nil || vals != nil {
			t.Fatalf("out-of-range Row(%d) = (%v, %v)", i, cols, vals)
		}
		if c.RowNNZ(i) != 0 || c.RowSum(i) != 0 {
			t.Fatalf("out-of-range row %d has entries", i)
		}
	}
}

func TestRowNormalize(t *testing.T) {
	c := FreezeNormalized(3, []map[int]float64{{0: 2, 1: 6}, {2: 5}})
	if !almostEqual(c.Get(0, 0), 0.25) || !almostEqual(c.Get(0, 1), 0.75) {
		t.Fatalf("row 0 normalised to %v, %v", c.Get(0, 0), c.Get(0, 1))
	}
	if !almostEqual(c.Get(1, 2), 1) {
		t.Fatalf("row 1 normalised to %v", c.Get(1, 2))
	}
	if c.MaxRowSumDelta() > 1e-9 {
		t.Fatalf("MaxRowSumDelta = %v after normalise", c.MaxRowSumDelta())
	}
}

func TestRowNormalizeClearsNonPositiveRows(t *testing.T) {
	c := FreezeNormalized(2, []map[int]float64{{0: 1, 1: -1}})
	if c.RowNNZ(0) != 0 {
		t.Fatal("non-positive row not cleared")
	}
}

func TestConvexCombinationPreservesStochasticity(t *testing.T) {
	// alpha*FM + beta*DM + gamma*UM with alpha+beta+gamma=1 must be
	// row-stochastic when all three share the same non-empty row support.
	rng := sim.NewRNG(42)
	n := 20
	fm, dm, um := stochastic(rng, n, 5, 0.01), stochastic(rng, n, 5, 0.01), stochastic(rng, n, 5, 0.01)
	tm, err := WeightedSum(nil, n, allRows(n), []Weighted{
		{0.5, rowsOf(fm)}, {0.3, rowsOf(dm)}, {0.2, rowsOf(um)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := tm.MaxRowSumDelta(); d > 1e-9 {
		t.Fatalf("convex combination not row-stochastic: delta %v", d)
	}
}

func TestMulMatchesDense(t *testing.T) {
	rng := sim.NewRNG(7)
	n := 8
	a, b := make(mapMatrix, n), make(mapMatrix, n)
	for i := 0; i < n; i++ {
		a[i], b[i] = map[int]float64{}, map[int]float64{}
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.4 {
				a[i][j] = rng.Float64()
			}
			if rng.Float64() < 0.4 {
				b[i][j] = rng.Float64()
			}
		}
	}
	c, err := a.freeze().Mul(b.freeze())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			for k := 0; k < n; k++ {
				want += a[i][k] * b[k][j]
			}
			if !almostEqual(c.Get(i, j), want) {
				t.Fatalf("Mul(%d,%d) = %v, want %v", i, j, c.Get(i, j), want)
			}
		}
	}
}

func TestMulErrors(t *testing.T) {
	a := FreezeNormalized(2, nil)
	if _, err := a.Mul(nil); err == nil {
		t.Fatal("nil operand not detected")
	}
	if _, err := a.Mul(FreezeNormalized(3, nil)); err == nil {
		t.Fatal("dimension mismatch not detected")
	}
}

func TestPowMatchesRepeatedMul(t *testing.T) {
	rng := sim.NewRNG(9)
	n := 6
	rows := make([]map[int]float64, n)
	for i := range rows {
		rows[i] = map[int]float64{}
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				rows[i][j] = rng.Float64()
			}
		}
	}
	m := FreezeNormalized(n, rows)
	want := m
	for k := 1; k <= 5; k++ {
		got, err := m.Pow(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(got.Get(i, j)-want.Get(i, j)) > 1e-9 {
					t.Fatalf("Pow(%d) mismatch at (%d,%d): %v vs %v",
						k, i, j, got.Get(i, j), want.Get(i, j))
				}
			}
		}
		if want, err = want.Mul(m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPowRejectsBadExponent(t *testing.T) {
	if _, err := FreezeNormalized(2, nil).Pow(0); err == nil {
		t.Fatal("Pow(0) succeeded")
	}
}

func TestStochasticPowerStaysStochastic(t *testing.T) {
	// TM row-stochastic implies TM^n row-stochastic wherever a row
	// survives: reputations remain a probability distribution over peers
	// at every multi-trust depth.
	rng := sim.NewRNG(21)
	n := 12
	p, err := stochastic(rng, n, 4, 0.05).Pow(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if p.RowNNZ(i) == 0 {
			continue
		}
		if math.Abs(p.RowSum(i)-1) > 1e-9 {
			t.Fatalf("row %d of TM^4 sums to %v", i, p.RowSum(i))
		}
	}
}

func TestRowVecPowMatchesPow(t *testing.T) {
	rng := sim.NewRNG(23)
	n := 10
	m := stochastic(rng, n, 3, 0)
	for _, k := range []int{1, 2, 3, 4} {
		full, err := m.Pow(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			row, err := m.RowVecPow(i, k)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < n; j++ {
				if math.Abs(row[j]-full.Get(i, j)) > 1e-9 {
					t.Fatalf("RowVecPow(%d,%d)[%d] = %v, want %v",
						i, k, j, row[j], full.Get(i, j))
				}
			}
		}
	}
}

func TestRowVecPowErrors(t *testing.T) {
	m := FreezeNormalized(3, nil)
	if _, err := m.RowVecPow(0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := m.RowVecPow(5, 1); err == nil {
		t.Fatal("row out of range accepted")
	}
}

func TestCSRRowCopyIsOwned(t *testing.T) {
	c := FreezeNormalized(3, []map[int]float64{{1: 1, 2: 3}, nil, {0: 2}})
	cols, vals := c.RowCopy(0)
	wantCols, wantVals := c.Row(0)
	if len(cols) != len(wantCols) || len(vals) != len(wantVals) {
		t.Fatalf("RowCopy shape (%d, %d) != Row shape (%d, %d)", len(cols), len(vals), len(wantCols), len(wantVals))
	}
	for k := range cols {
		if cols[k] != wantCols[k] || vals[k] != wantVals[k] {
			t.Fatalf("RowCopy diverges from Row at %d", k)
		}
	}
	cols[0], vals[0] = 99, 99
	if gotCols, gotVals := c.Row(0); gotCols[0] == 99 || gotVals[0] == 99 {
		t.Fatal("RowCopy shares storage with the matrix")
	}
	if cols, vals := c.RowCopy(1); cols != nil || vals != nil {
		t.Fatalf("empty row copy = (%v, %v), want (nil, nil)", cols, vals)
	}
	if cols, vals := c.RowCopy(-1); cols != nil || vals != nil {
		t.Fatalf("out-of-range copy = (%v, %v), want (nil, nil)", cols, vals)
	}
}

func TestEntriesSorted(t *testing.T) {
	e := mapMatrix{{2: 2, 1: 3}, nil, {0: 1}}.freeze().Entries()
	if len(e) != 3 {
		t.Fatalf("Entries len %d", len(e))
	}
	if e[0] != (Entry{0, 1, 3}) || e[1] != (Entry{0, 2, 2}) || e[2] != (Entry{2, 0, 1}) {
		t.Fatalf("Entries order: %+v", e)
	}
}

func TestNormalizeIdempotentProperty(t *testing.T) {
	rng := sim.NewRNG(31)
	f := func(seed uint16) bool {
		r := rng.DeriveStream(string(rune(seed)))
		n := 5 + r.Intn(10)
		once := stochastic(r, n, 3, 0)
		rows := make([]map[int]float64, n)
		for i := range rows {
			cols, vals := once.Row(i)
			rows[i] = make(map[int]float64, len(cols))
			for k, j := range cols {
				rows[i][int(j)] = vals[k]
			}
		}
		before, after := once.Entries(), FreezeNormalized(n, rows).Entries()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i].Row != after[i].Row || before[i].Col != after[i].Col {
				return false
			}
			if math.Abs(before[i].Val-after[i].Val) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
