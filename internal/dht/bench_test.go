package dht_test

import (
	"fmt"
	"sort"
	"testing"

	"mdrep/internal/dht"
	"mdrep/internal/eval"
	"mdrep/internal/identity"
	"mdrep/internal/walk"
	"mdrep/internal/wire"
)

// BenchmarkDHTFrameCodec encodes and then decodes the TCP transport's
// two busiest frames: walk-dht's retrieve answer, one TM-row record (the
// row of median length in the walk-dht matrix, n=2000, seed 1, built as
// BenchmarkTCPRoundTrip builds it), and a store request of 48 signed
// evaluation records, one owner's publish in judge-tcp's set-up. It
// reports both frames' bytes per op.
func BenchmarkDHTFrameCodec(b *testing.B) {
	tm, err := walk.RandomTM(2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	users := make([]int, tm.N())
	for u := range users {
		users[u] = u
	}
	sort.SliceStable(users, func(x, y int) bool { return tm.RowNNZ(users[x]) < tm.RowNNZ(users[y]) })
	user := users[len(users)/2]
	cols, vals := tm.RowCopy(user)
	row, err := walk.RowRecord(&wire.TMRow{User: int32(user), N: int32(tm.N()), Epoch: 1, Cols: cols, Vals: vals})
	if err != nil {
		b.Fatal(err)
	}
	id, err := identity.Generate(identity.NewDeterministicReader(1))
	if err != nil {
		b.Fatal(err)
	}
	store := make([]dht.StoredRecord, 48)
	for f := range store {
		info := eval.Info{
			FileID:     eval.FileID(fmt.Sprintf("%016x", uint64(f)*0x9e3779b97f4a7c15)),
			OwnerID:    id.ID(),
			Evaluation: float64(f%10) / 9,
			Timestamp:  1,
		}
		if err := info.Sign(id); err != nil {
			b.Fatal(err)
		}
		store[f] = dht.StoredRecord{Key: dht.HashKey(string(info.FileID)), Info: info}
	}
	answer := []dht.StoredRecord{row}
	b.ReportAllocs()
	b.ResetTimer()
	bytes := 0
	for i := 0; i < b.N; i++ {
		n, err := dht.CodecRoundTrip(store, answer)
		if err != nil {
			b.Fatal(err)
		}
		bytes += n
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "frame-B/op")
}
