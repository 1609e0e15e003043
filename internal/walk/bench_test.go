package walk

import "testing"

// BenchmarkWalkEstimate times one full walk ensemble at E11's
// cross-validation scale: 4k walks of depth 3 over an n=2000 Zipf graph
// served by a LocalSource. Part of the canonical bench-json suite.
func BenchmarkWalkEstimate(b *testing.B) {
	tm, err := RandomTM(2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	src, err := NewLocalSource(tm)
	if err != nil {
		b.Fatal(err)
	}
	est, err := New(src, Config{Walks: 4000, Depth: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalkEstimateDHT times the same estimate over a DHTSource on an
// in-memory 8-node ring, repinned before each estimate as the walk-dht
// end-to-end workload does, so every estimate fetches its rows through
// the DHT instead of the row cache. Part of the canonical bench-json
// suite.
func BenchmarkWalkEstimateDHT(b *testing.B) {
	tm, err := RandomTM(2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	src := ringSource(b, tm, 1)
	est, err := New(src, Config{Walks: 4000, Depth: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.SetEpoch(1)
		if _, err := est.Estimate(0); err != nil {
			b.Fatal(err)
		}
	}
}
