package eval

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"mdrep/internal/identity"
)

// fuzzBytes hands out the fuzzer's input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzBytes) take(n int) []byte {
	n = min(n, len(*b))
	out := bytes.Clone((*b)[:n])
	*b = (*b)[n:]
	return out
}

// FuzzVerifyAll builds a batch out of signed evaluation lists: records
// picked in any order, repeated, moved to another timestamp or owner's
// list, given random Signature or ListSignature bytes, truncated or
// overlong length varints, or declared lengths of 0, 1 and huge. VerifyAll
// must never panic, and it must accept exactly the records a slow
// reference accepts: those with a valid own signature, and those in range
// that belong to a whole group whose list signature verifies.
func FuzzVerifyAll(f *testing.F) {
	const listFiles, stamps = 4, 2
	dir := identity.NewDirectory()
	var base [][][]Info // base[owner][stamp]: the owner's signed list
	for seed := uint64(900); seed < 904; seed++ {
		id, err := identity.Generate(identity.NewDeterministicReader(seed))
		if err != nil {
			f.Fatal(err)
		}
		if seed < 903 { // the last owner is unknown to the directory
			if _, err := dir.Register(id.PublicKey()); err != nil {
				f.Fatal(err)
			}
		}
		var lists [][]Info
		for ts := 0; ts < stamps; ts++ {
			lists = append(lists, signedList(f, id, listFiles, time.Duration(ts)))
		}
		base = append(base, lists)
	}
	// A record is four bytes: owner, stamp, file, mutation; some
	// mutations read more.
	whole := []byte{4, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0}
	f.Add([]byte{})
	f.Add(whole)
	f.Add([]byte{4, 0, 0, 3, 0, 0, 0, 1, 1, 5, 9, 9, 9, 9, 9, 0, 0, 2, 0, 0, 0, 0, 0}) // one garbage own signature
	for mut := byte(2); mut <= 8; mut++ {
		seed := bytes.Clone(whole)
		seed[8] = mut
		f.Add(seed)
	}
	for length := byte(0); length < 6; length++ {
		f.Add([]byte{4, 0, 0, 0, 5, length, 0, 0, 1, 5, length, 0, 0, 2, 5, length, 0, 0, 3, 5, length})
	}
	f.Add([]byte{6, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 3, 0, 2, 0, 0, 0, 3, 0}) // mixed owners and stamps

	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := int(in.next() % 16)
		infos := make([]Info, 0, n)
		for k := 0; k < n; k++ {
			o, ts, file := int(in.next())%len(base), int(in.next())%stamps, int(in.next())%listFiles
			r := base[o][ts][file]
			sig := bytes.Clone(r.ListSignature[:ed25519.SignatureSize])
			switch in.next() % 9 {
			case 1:
				r.Signature = in.take(int(in.next()) % 80)
			case 2:
				r.ListSignature = in.take(int(in.next()) % 80)
			case 3: // truncated length varint
				r.ListSignature = append(sig, 0x80)
			case 4: // overlong length varint
				r.ListSignature = append(append(sig, bytes.Repeat([]byte{0xff}, 10)...), 0x01)
			case 5:
				lengths := []uint64{0, 1, listFiles - 1, listFiles + 1, 1 << 62, math.MaxUint64}
				r.ListSignature = binary.AppendUvarint(sig, lengths[int(in.next())%len(lengths)])
			case 6: // another file of the same list: a repeat
				r.FileID = base[o][ts][int(in.next())%listFiles].FileID
			case 7: // another stamp or owner's list signature
				r.ListSignature = base[int(in.next())%len(base)][int(in.next())%stamps][0].ListSignature
			case 8: // may leave [0,1]
				r.Evaluation = float64(in.next())/128 - 0.5
			}
			infos = append(infos, r)
		}
		got := VerifyAll(dir, infos)
		for i := range infos {
			own := infos[i].Verify(dir)
			want := own == nil || infos[i].checkRange() == nil && refWholeList(dir, infos, i)
			if (got[i] == nil) != want {
				t.Fatalf("record %d of %d: VerifyAll = %v, own signature %v, reference accepts = %v", i, len(infos), got[i], own, want)
			}
		}
	})
}

// refWholeList is VerifyAll's list rule written out slowly: infos[i]'s
// group (same owner, timestamp and list signature) holds at least two
// records, as many as the list signature declares and no file twice, and
// the owner's key verifies the list signature over them in FileID order.
func refWholeList(dir *identity.Directory, infos []Info, i int) bool {
	me := infos[i]
	ls := me.ListSignature
	if len(ls) <= ed25519.SignatureSize {
		return false
	}
	declared, k := binary.Uvarint(ls[ed25519.SignatureSize:])
	if k <= 0 || ed25519.SignatureSize+k != len(ls) {
		return false
	}
	var group []Info
	for _, in := range infos {
		if in.OwnerID == me.OwnerID && in.Timestamp == me.Timestamp && bytes.Equal(in.ListSignature, ls) {
			group = append(group, in)
		}
	}
	if len(group) < 2 || uint64(len(group)) != declared {
		return false
	}
	sort.Slice(group, func(x, y int) bool { return group[x].FileID < group[y].FileID })
	msg := fmt.Appendf(nil, "mdrep/evallist/v1\x00%d:%s%d:%d:", len(me.OwnerID), me.OwnerID, int64(me.Timestamp), len(group))
	for k, in := range group {
		if k > 0 && in.FileID == group[k-1].FileID {
			return false
		}
		cb := in.canonicalBytes()
		msg = binary.BigEndian.AppendUint32(msg, uint32(len(cb)))
		msg = append(msg, cb...)
	}
	pub, ok := dir.Lookup(me.OwnerID)
	return ok && identity.IDFromPublicKey(pub) == me.OwnerID && ed25519.Verify(pub, msg, ls[:ed25519.SignatureSize])
}
