package dht

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/identity"
)

func rec(key ID, owner string, value float64, ts time.Duration) StoredRecord {
	return StoredRecord{
		Key: key,
		Info: eval.Info{
			FileID:     "f",
			OwnerID:    identity.PeerID(owner),
			Evaluation: value,
			Timestamp:  ts,
		},
	}
}

func TestStoragePutGet(t *testing.T) {
	s := NewStorage(0, nil)
	if n := s.Put([]StoredRecord{rec(1, "a", 0.9, 0), rec(1, "b", 0.5, 0), rec(2, "a", 0.1, 0)}); n != 3 {
		t.Fatalf("Put accepted %d, want 3", n)
	}
	got := s.Get(1)
	if len(got) != 2 {
		t.Fatalf("Get(1) returned %d records", len(got))
	}
	if got[0].Info.OwnerID != "a" || got[1].Info.OwnerID != "b" {
		t.Fatalf("records not sorted by owner: %+v", got)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Get(9) != nil {
		t.Fatal("missing key returned records")
	}
}

func TestStorageNewerTimestampWins(t *testing.T) {
	s := NewStorage(0, nil)
	s.Put([]StoredRecord{rec(1, "a", 0.9, 10)})
	s.Put([]StoredRecord{rec(1, "a", 0.1, 5)}) // stale replay
	got := s.Get(1)
	if len(got) != 1 || got[0].Info.Evaluation != 0.9 {
		t.Fatalf("stale record overwrote newer: %+v", got)
	}
	s.Put([]StoredRecord{rec(1, "a", 0.2, 20)}) // genuine update
	got = s.Get(1)
	if got[0].Info.Evaluation != 0.2 {
		t.Fatalf("republication did not supersede: %+v", got)
	}
}

func TestStorageTTLExpiry(t *testing.T) {
	s := NewStorage(time.Hour, nil)
	now := time.Unix(1000, 0)
	s.now = func() time.Time { return now }
	s.Put([]StoredRecord{rec(1, "a", 0.9, 0)})
	if len(s.Get(1)) != 1 {
		t.Fatal("fresh record missing")
	}
	now = now.Add(2 * time.Hour)
	if len(s.Get(1)) != 0 {
		t.Fatal("expired record still returned")
	}
	if removed := s.Sweep(); removed != 1 {
		t.Fatalf("Sweep removed %d, want 1", removed)
	}
	if s.Len() != 0 {
		t.Fatal("swept store not empty")
	}
}

func TestStorageRepublicationRefreshesTTL(t *testing.T) {
	s := NewStorage(time.Hour, nil)
	now := time.Unix(1000, 0)
	s.now = func() time.Time { return now }
	s.Put([]StoredRecord{rec(1, "a", 0.9, 0)})
	now = now.Add(50 * time.Minute)
	s.Put([]StoredRecord{rec(1, "a", 0.9, time.Duration(now.UnixNano()))})
	now = now.Add(50 * time.Minute) // 100m after first put, 50m after refresh
	if len(s.Get(1)) != 1 {
		t.Fatal("republished record expired")
	}
}

func TestStorageSignatureVerification(t *testing.T) {
	id, err := identity.Generate(identity.NewDeterministicReader(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := identity.NewDirectory()
	if _, err := dir.Register(id.PublicKey()); err != nil {
		t.Fatal(err)
	}
	s := NewStorage(0, dir)

	signed := eval.Info{FileID: "f", OwnerID: id.ID(), Evaluation: 0.7, Timestamp: 1}
	if err := signed.Sign(id); err != nil {
		t.Fatal(err)
	}
	forged := signed
	forged.Evaluation = 1.0 // signature now invalid

	n := s.Put([]StoredRecord{
		{Key: 1, Info: signed},
		{Key: 1, Info: forged},
	})
	if n != 1 {
		t.Fatalf("Put accepted %d records, want only the signed one", n)
	}
	got := s.Get(1)
	if len(got) != 1 || got[0].Info.Evaluation != 0.7 {
		t.Fatalf("stored record wrong: %+v", got)
	}
}

// TestStorageConcurrentPutHidesForgeries runs Put from several writers,
// each batch mixing honest records with forged ones that carry newer
// timestamps, while readers Get every key; run it under -race. No reader
// may ever see a record that fails verification, and each slot ends on
// its owner's newest honest record.
func TestStorageConcurrentPutHidesForgeries(t *testing.T) {
	const owners, keys, rounds = 4, 8, 10
	dir := identity.NewDirectory()
	batches := make([][][]StoredRecord, owners) // [owner][round]
	for o := range batches {
		id, err := identity.Generate(identity.NewDeterministicReader(uint64(100 + o)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dir.Register(id.PublicKey()); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			var batch []StoredRecord
			for k := 0; k < keys; k++ {
				in := eval.Info{FileID: "f", OwnerID: id.ID(), Evaluation: float64(r) / rounds, Timestamp: time.Duration(r)}
				if err := in.Sign(id); err != nil {
					t.Fatal(err)
				}
				forged := in
				forged.Timestamp++
				batch = append(batch, StoredRecord{Key: ID(k), Info: forged}, StoredRecord{Key: ID(k), Info: in})
			}
			batches[o] = append(batches[o], batch)
		}
	}
	s := NewStorage(0, dir)
	stop := make(chan struct{})
	bad := make(chan string, owners+2)
	var readers, writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				for k := 0; k < keys; k++ {
					for _, r := range s.Get(ID(k)) {
						if err := r.Info.Verify(dir); err != nil {
							bad <- fmt.Sprintf("key %d: forged record visible: %+v", k, r.Info)
							return
						}
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for o := range batches {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for _, batch := range batches[o] {
				if n := s.Put(batch); n != keys {
					bad <- fmt.Sprintf("owner %d: Put accepted %d of %d honest records", o, n, keys)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(bad)
	for msg := range bad {
		t.Fatal(msg)
	}
	for k := 0; k < keys; k++ {
		got := s.Get(ID(k))
		if len(got) != owners {
			t.Fatalf("key %d holds %d records, want %d", k, len(got), owners)
		}
		for _, r := range got {
			if r.Info.Timestamp != rounds-1 {
				t.Fatalf("key %d: owner %s ends at timestamp %d, want %d", k, r.Info.OwnerID, r.Info.Timestamp, rounds-1)
			}
		}
	}
}

// TestStoragePutWithoutDirectoryAllocatesNothing: a ring without a
// directory stores unsigned records, and refreshing stored records costs
// no allocation for verification it does not do.
func TestStoragePutWithoutDirectoryAllocatesNothing(t *testing.T) {
	s := NewStorage(0, nil)
	batch := []StoredRecord{rec(1, "a", 0.9, 0), rec(1, "b", 0.5, 0), rec(2, "a", 0.1, 0)}
	s.Put(batch)
	if allocs := testing.AllocsPerRun(100, func() { s.Put(batch) }); allocs != 0 {
		t.Fatalf("Put without a directory allocated %v times per call", allocs)
	}
}

func TestStorageRecordsInRange(t *testing.T) {
	s := NewStorage(0, nil)
	s.Put([]StoredRecord{rec(5, "a", 1, 0), rec(15, "a", 1, 0), rec(25, "a", 1, 0)})
	got := s.RecordsInRange(10, 20)
	if len(got) != 1 || got[0].Key != 15 {
		t.Fatalf("RecordsInRange(10, 20) = %+v", got)
	}
	all := s.All()
	if len(all) != 3 {
		t.Fatalf("All returned %d records", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Key > all[i].Key {
			t.Fatal("All not sorted by key")
		}
	}
}

func TestStorageRangeWraps(t *testing.T) {
	s := NewStorage(0, nil)
	high := ^ID(4)
	s.Put([]StoredRecord{rec(high, "a", 1, 0), rec(3, "a", 1, 0), rec(1000, "a", 1, 0)})
	got := s.RecordsInRange(^ID(9), 10)
	if len(got) != 2 {
		t.Fatalf("wrapped range returned %d records, want 2", len(got))
	}
}
