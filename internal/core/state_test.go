package core

import (
	"math/rand"
	"testing"
)

// TestExportStateRoundTripStable: export, NewEngineFromState, export
// again gives the same bytes. The seeded streams blacklist every target
// some peers rated, so those peers are left with emptied rating maps.
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
		e, err := NewEngine(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if err := e.ApplyEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		for _, per := range e.userTrust {
			if per != nil && len(per) == 0 {
				emptied++
			}
		}
		want := marshalState(t, e.ExportState())
		restored, err := NewEngineFromState(e.ExportState(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := marshalState(t, restored.ExportState()); string(got) != string(want) {
			t.Fatalf("seed %d: state changed across a round trip:\n got %s\nwant %s", seed, got, want)
		}
	}
	if emptied == 0 {
		t.Fatal("no stream emptied a rating map; the property is not exercised")
	}
}
