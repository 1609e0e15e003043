package multitier

import (
	"testing"

	"mdrep/internal/sparse"
)

// chainMatrix builds 0→1→2→3→… with unit trust.
func chainMatrix(n int) *sparse.CSR {
	rows := make([]map[int]float64, n)
	for i := 0; i+1 < n; i++ {
		rows[i] = map[int]float64{i + 1: 1}
	}
	return sparse.FreezeNormalized(n, rows)
}

func TestTierDepth(t *testing.T) {
	c, err := NewClassifier(chainMatrix(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	for want := 1; want <= 4; want++ {
		tier, trust := c.Tier(0, want)
		if tier != want {
			t.Fatalf("Tier(0,%d) = %d, want %d", want, tier, want)
		}
		if trust <= 0 {
			t.Fatalf("Tier(0,%d) trust = %v", want, trust)
		}
	}
}

func TestTierUnreachable(t *testing.T) {
	c, err := NewClassifier(chainMatrix(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	tier, trust := c.Tier(0, 4) // 4 hops away, maxTier 2
	if tier != Unreachable || trust != 0 {
		t.Fatalf("Tier = %d, %v, want Unreachable", tier, trust)
	}
	if tier, _ := c.Tier(3, 0); tier != Unreachable { // chain is directed
		t.Fatalf("reverse direction reachable: tier %d", tier)
	}
}

func TestRankPrefersLowerTier(t *testing.T) {
	// Server 0: peer 1 is tier 1, peer 2 is tier 2, peer 4 unreachable.
	c, err := NewClassifier(chainMatrix(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	ranked := c.Rank(0, []int{4, 2, 1})
	if ranked[0].Peer != 1 || ranked[1].Peer != 2 || ranked[2].Peer != 4 {
		t.Fatalf("Rank order: %+v", ranked)
	}
	if ranked[2].Tier != Unreachable {
		t.Fatalf("unreachable peer tier: %d", ranked[2].Tier)
	}
}

func TestRankWithinTierByTrust(t *testing.T) {
	m := sparse.FreezeNormalized(4, []map[int]float64{{1: 3, 2: 1}}) // 0 trusts 1 more
	c, err := NewClassifier(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	ranked := c.Rank(0, []int{2, 1})
	if ranked[0].Peer != 1 {
		t.Fatalf("within-tier rank ignored trust values: %+v", ranked)
	}
}

func TestCoverageGrowsWithDepth(t *testing.T) {
	c, err := NewClassifier(chainMatrix(6), 5)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}
	cov := c.Coverage(pairs)
	if len(cov) != 5 {
		t.Fatalf("coverage length %d", len(cov))
	}
	for k := 1; k < len(cov); k++ {
		if cov[k] < cov[k-1] {
			t.Fatalf("coverage not monotone: %v", cov)
		}
	}
	if cov[0] != 0.2 || cov[4] != 1.0 {
		t.Fatalf("coverage endpoints: %v", cov)
	}
}

func TestCoverageEmptyPairs(t *testing.T) {
	c, err := NewClassifier(chainMatrix(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	cov := c.Coverage(nil)
	for _, v := range cov {
		if v != 0 {
			t.Fatalf("coverage of no pairs: %v", cov)
		}
	}
}

func TestNewClassifierValidation(t *testing.T) {
	if _, err := NewClassifier(nil, 2); err == nil {
		t.Fatal("nil matrix accepted")
	}
	if _, err := NewClassifier(sparse.FreezeNormalized(2, nil), 0); err == nil {
		t.Fatal("maxTier 0 accepted")
	}
}

func TestClassifierDoesNotMutateInput(t *testing.T) {
	m := chainMatrix(4)
	before := m.Entries()
	if _, err := NewClassifier(m, 3); err != nil {
		t.Fatal(err)
	}
	after := m.Entries()
	if len(before) != len(after) {
		t.Fatal("classifier mutated input matrix")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("classifier mutated input matrix")
		}
	}
}

// TestClassifierMatchesMapPowers cross-checks the CSR power chain against
// powers multiplied out over map rows. Every entry is a power of 1/2, so
// each product is exact in any summation order and == is the right test.
func TestClassifierMatchesMapPowers(t *testing.T) {
	norm := []map[int]float64{{1: 0.5, 2: 0.5}, {3: 1}, {4: 1}, {0: 1}, nil}
	c, err := NewClassifier(sparse.FreezeNormalized(5, norm), 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := norm
	for k := 0; k < 3; k++ {
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				if got, want := c.powers[k].Get(i, j), ref[i][j]; got != want {
					t.Fatalf("power %d entry (%d,%d) = %v, want %v", k+1, i, j, got, want)
				}
			}
		}
		next := make([]map[int]float64, len(ref))
		for i, row := range ref {
			next[i] = make(map[int]float64)
			for mid, w := range row {
				for j, v := range norm[mid] {
					next[i][j] += w * v
				}
			}
		}
		ref = next
	}
}

func TestVecClassifier(t *testing.T) {
	c, err := NewVecClassifier([]float64{0.7, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if c.Tiers() != 3 {
		t.Fatalf("Tiers() = %d, want 3", c.Tiers())
	}
	cases := []struct {
		rep  float64
		tier int
	}{{0.9, 1}, {0.7, 1}, {0.69, 2}, {0.4, 2}, {0.1, 3}, {0, 3}}
	for _, tc := range cases {
		if got := c.Tier(tc.rep); got != tc.tier {
			t.Fatalf("Tier(%v) = %d, want %d", tc.rep, got, tc.tier)
		}
	}
	dist := c.Distribution([]float64{0.9, 0.8, 0.5, 0.2, 0.1, 0.05})
	want := []int{2, 1, 3}
	for k := range want {
		if dist[k] != want[k] {
			t.Fatalf("Distribution = %v, want %v", dist, want)
		}
	}
}

func TestVecClassifierErrors(t *testing.T) {
	if _, err := NewVecClassifier(nil); err == nil {
		t.Fatal("want error for empty bounds")
	}
	if _, err := NewVecClassifier([]float64{0.4, 0.7}); err == nil {
		t.Fatal("want error for ascending bounds")
	}
	if _, err := NewVecClassifier([]float64{1.5}); err == nil {
		t.Fatal("want error for bound outside (0,1)")
	}
}
