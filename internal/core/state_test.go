package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestExportStateRoundTripStable: export every shard, restore, export
// again gives the same bytes, at K = 1 and K = 4 (see roundTripShards).
// The seeded streams blacklist every target some peers rated, so those
// peers are left with emptied rating maps.
func TestExportStateRoundTripStable(t *testing.T) {
	const n = 6
	cfg := DefaultConfig()
	emptied := 0
	for seed := int64(1); seed <= 20; seed++ {
		evs := scriptEvents(n, 4, seed)
		rng := rand.New(rand.NewSource(seed))
		drain := make([]bool, n)
		for i := range drain {
			drain[i] = rng.Intn(2) == 0
		}
		for _, ev := range evs {
			if ev.Kind == EventRateUser && drain[ev.I] {
				evs = append(evs, Event{Kind: EventBlacklist, I: ev.I, J: ev.J})
			}
		}
		for _, k := range []int{1, 4} {
			s := roundTripShards(t, fmt.Sprintf("seed %d k=%d", seed, k), n, k, cfg, evs)
			for _, per := range s.eng.userTrust {
				if per != nil && len(per) == 0 {
					emptied++
				}
			}
		}
	}
	if emptied == 0 {
		t.Fatal("no stream emptied a rating map; the property is not exercised")
	}
}
