package dht

import (
	"fmt"
	"strings"
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

// TestStorageOwnerOrder puts one key's owners out of order, then a stale
// replay and a newer replacement, and checks that every reader sees the
// owners in order, one record each, and that Sweep drops exactly the
// expired ones.
func TestStorageOwnerOrder(t *testing.T) {
	s := NewStorage(time.Hour, nil)
	now := time.Unix(1000, 0)
	s.now = func() time.Time { return now }
	if n := s.Put([]StoredRecord{rec(7, "d", 0.4, 5), rec(7, "b", 0.2, 5), rec(9, "a", 0.9, 5), rec(7, "c", 0.3, 5)}); n != 4 {
		t.Fatalf("Put accepted %d, want 4", n)
	}
	now = now.Add(40 * time.Minute)
	if n := s.Put([]StoredRecord{rec(7, "a", 0.1, 5), rec(7, "c", 0.0, 4), rec(7, "d", 0.8, 6)}); n != 2 {
		t.Fatalf("Put accepted %d of a new owner, a stale replay and a replacement, want 2", n)
	}
	owners := func(recs []StoredRecord) string {
		var b strings.Builder
		for _, r := range recs {
			fmt.Fprintf(&b, "%s%d=%v ", r.Info.OwnerID, r.Key, r.Info.Evaluation)
		}
		return b.String()
	}
	if got, want := owners(s.Get(7)), "a7=0.1 b7=0.2 c7=0.3 d7=0.8 "; got != want {
		t.Fatalf("Get(7) = %s, want %s", got, want)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	if got, want := owners(s.RecordsInRange(6, 9)), "a7=0.1 b7=0.2 c7=0.3 d7=0.8 a9=0.9 "; got != want {
		t.Fatalf("RecordsInRange(6, 9) = %s, want %s", got, want)
	}
	// b, c and key 9's a were stored 70 minutes ago; a and d 30.
	now = now.Add(30 * time.Minute)
	if got, want := owners(s.Get(7)), "a7=0.1 d7=0.8 "; got != want {
		t.Fatalf("Get(7) past the TTL = %s, want %s", got, want)
	}
	if removed := s.Sweep(); removed != 3 {
		t.Fatalf("Sweep removed %d, want 3", removed)
	}
	if s.Len() != 2 || s.Get(9) != nil {
		t.Fatalf("after Sweep: Len = %d, Get(9) = %v", s.Len(), s.Get(9))
	}
	if got, want := owners(s.All()), "a7=0.1 d7=0.8 "; got != want {
		t.Fatalf("All after Sweep = %s, want %s", got, want)
	}
}

// TestStorageDropsListSignature puts an owner's whole served list, list
// signatures and all, in one batch. A stored record is judged alone, so
// the store keeps none of the list signatures and checks each record by
// its own signature: the record whose own signature is spoiled is
// refused although the list signature would vouch for it.
func TestStorageDropsListSignature(t *testing.T) {
	id, err := identity.Generate(identity.NewDeterministicReader(7))
	if err != nil {
		t.Fatal(err)
	}
	dir := identity.NewDirectory()
	if _, err := dir.Register(id.PublicKey()); err != nil {
		t.Fatal(err)
	}
	infos := make([]eval.Info, 3)
	for k := range infos {
		infos[k] = eval.Info{FileID: eval.FileID(fmt.Sprintf("f%d", k)), OwnerID: id.ID(), Evaluation: 0.5, Timestamp: 1}
		if err := infos[k].Sign(id); err != nil {
			t.Fatal(err)
		}
	}
	ls, err := eval.SignList(id, infos)
	if err != nil {
		t.Fatal(err)
	}
	infos[2].Signature = make([]byte, len(infos[2].Signature))
	recs := make([]StoredRecord, len(infos))
	for k := range infos {
		infos[k].ListSignature = ls
		recs[k] = StoredRecord{Key: ID(k), Info: infos[k]}
	}
	for k, err := range eval.VerifyAll(dir, infos) {
		if err != nil {
			t.Fatalf("record %d: the whole list is not accepted by its list signature: %v", k, err)
		}
	}
	s := NewStorage(0, dir)
	if n := s.Put(recs); n != 2 {
		t.Fatalf("Put accepted %d records, want the 2 with a valid own signature", n)
	}
	for _, r := range s.All() {
		if r.Info.ListSignature != nil {
			t.Fatalf("%s stored with a list signature", r.Info.FileID)
		}
		if err := r.Info.Verify(dir); err != nil {
			t.Fatalf("%s stored but fails alone: %v", r.Info.FileID, err)
		}
	}
	if recs[0].Info.ListSignature == nil {
		t.Fatal("Put cleared the caller's list signature")
	}
}
