package eigentrust

import (
	"math"
	"testing"

	"mdrep/internal/sim"
	"mdrep/internal/sparse"
)

func ringMatrix(n int) *sparse.CSR {
	rows := make([]map[int]float64, n)
	for i := range rows {
		rows[i] = map[int]float64{(i + 1) % n: 1}
	}
	return sparse.FreezeNormalized(n, rows)
}

func TestComputeUniformOnSymmetricRing(t *testing.T) {
	n := 8
	m := ringMatrix(n)
	res, err := Compute(m, DefaultConfig([]int{0}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("power iteration did not converge on a ring")
	}
	sum := 0.0
	for _, v := range res.Trust {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("trust sums to %v", sum)
	}
}

func TestComputeFavorsHighlyTrustedPeer(t *testing.T) {
	// Everyone trusts peer 0; peer 0 trusts peer 1.
	n := 6
	rows := []map[int]float64{{1: 1}}
	for i := 1; i < n; i++ {
		rows = append(rows, map[int]float64{0: 1})
	}
	res, err := Compute(sparse.FreezeNormalized(n, rows), DefaultConfig([]int{2}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < n; i++ {
		if res.Trust[0] <= res.Trust[i] {
			t.Fatalf("hub peer 0 (%v) not above peer %d (%v)", res.Trust[0], i, res.Trust[i])
		}
	}
	if res.Trust[1] <= res.Trust[3] {
		t.Fatalf("peer 1 trusted by hub (%v) not above leaf %v", res.Trust[1], res.Trust[3])
	}
}

func TestComputeIsolatedCliqueLimitedByDamping(t *testing.T) {
	// A collusion clique (3,4) trusts only itself; nobody outside trusts
	// it. Pre-trust damping keeps its global trust near zero.
	m := sparse.FreezeNormalized(5, []map[int]float64{{1: 1}, {2: 1}, {0: 1}, {4: 1}, {3: 1}})
	res, err := Compute(m, DefaultConfig([]int{0}))
	if err != nil {
		t.Fatal(err)
	}
	cliqueTrust := res.Trust[3] + res.Trust[4]
	if cliqueTrust > 0.05 {
		t.Fatalf("isolated clique captured %v global trust", cliqueTrust)
	}
}

func TestComputeDanglingRows(t *testing.T) {
	// Peer 2 has no outgoing trust; its mass must flow to pre-trusted
	// peers rather than leak.
	m := sparse.FreezeNormalized(3, []map[int]float64{{2: 1}, {2: 1}})
	res, err := Compute(m, DefaultConfig([]int{0}))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range res.Trust {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("trust mass leaked: sum %v", sum)
	}
	if res.Trust[2] < res.Trust[1] {
		t.Fatalf("peer trusted by all (%v) below leaf (%v)", res.Trust[2], res.Trust[1])
	}
}

func TestComputeRejectsNonStochastic(t *testing.T) {
	m, err := sparse.WeightedSum(nil, 2, []int{0, 1}, []sparse.Weighted{
		{Scale: 2, Rows: []sparse.Row{{Cols: []int32{1}, Vals: []float64{1}}, {}}}, // row sums to 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(m, DefaultConfig([]int{0})); err == nil {
		t.Fatal("non-stochastic matrix accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	m := ringMatrix(4)
	cases := []Config{
		{PreTrusted: nil, Damping: 0.1, Epsilon: 1e-9, MaxIterations: 10},
		{PreTrusted: []int{9}, Damping: 0.1, Epsilon: 1e-9, MaxIterations: 10},
		{PreTrusted: []int{0}, Damping: 2, Epsilon: 1e-9, MaxIterations: 10},
		{PreTrusted: []int{0}, Damping: 0.1, Epsilon: 0, MaxIterations: 10},
		{PreTrusted: []int{0}, Damping: 0.1, Epsilon: 1e-9, MaxIterations: 0},
	}
	for i, cfg := range cases {
		if _, err := Compute(m, cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestComputeDeterministic(t *testing.T) {
	rng := sim.NewRNG(3)
	n := 30
	rows := make([]map[int]float64, n)
	for i := range rows {
		rows[i] = map[int]float64{}
		for k := 0; k < 4; k++ {
			rows[i][rng.Intn(n)] = rng.Float64() + 0.01
		}
	}
	m := sparse.FreezeNormalized(n, rows)
	a, err := Compute(m, DefaultConfig([]int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(m, DefaultConfig([]int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Trust {
		if a.Trust[i] != b.Trust[i] {
			t.Fatal("Compute not deterministic")
		}
	}
}

func TestLocalTrustFromSatisfaction(t *testing.T) {
	sat := []map[int]float64{{1: 10, 2: 3}, nil, nil}
	unsat := []map[int]float64{{1: 4, 2: 5}, nil, nil} // nets 6 and −2
	c, err := LocalTrustFromSatisfaction(sat, unsat)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Get(0, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("c_01 = %v, want 1 (sole positive net)", got)
	}
	if c.Get(0, 2) != 0 {
		t.Fatal("negative net satisfaction kept")
	}
}

func TestLocalTrustFromSatisfactionErrors(t *testing.T) {
	if _, err := LocalTrustFromSatisfaction(nil, make([]map[int]float64, 2)); err == nil {
		t.Fatal("nil sat accepted")
	}
	if _, err := LocalTrustFromSatisfaction(make([]map[int]float64, 2), make([]map[int]float64, 3)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	for _, j := range []int{-1, 2} {
		bad := []map[int]float64{{j: 1}, nil}
		if _, err := LocalTrustFromSatisfaction(bad, make([]map[int]float64, 2)); err == nil {
			t.Fatalf("satisfied rating of peer %d of 2 accepted", j)
		}
		if _, err := LocalTrustFromSatisfaction(make([]map[int]float64, 2), bad); err == nil {
			t.Fatalf("unsatisfied rating of peer %d of 2 accepted", j)
		}
	}
}
