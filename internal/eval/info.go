package eval

import (
	"bytes"
	"cmp"
	"crypto/ed25519"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"mdrep/internal/identity"
)

// Info is the EvaluationInfo record of §4.1, published to the DHT
// alongside a file's index entry:
//
//	EvaluationInfo = <FileID, OwnerID, Evaluation, Signature>
//
// A timestamp is added so republication supersedes stale copies and so
// replay of withdrawn evaluations is detectable.
type Info struct {
	FileID     FileID          `json:"fileId"`
	OwnerID    identity.PeerID `json:"ownerId"`
	Evaluation float64         `json:"evaluation"`
	Timestamp  time.Duration   `json:"timestampNanos"`
	Signature  []byte          `json:"signature,omitempty"`
	// ListSignature is the owner's signature over the whole evaluation
	// list the record was served in, followed by the list's length as a
	// uvarint (SignList). Every record of one served list carries the
	// same bytes, so VerifyAll checks a whole list with one signature.
	// Records stored in the DHT have none: each is judged alone.
	ListSignature []byte `json:"listSignature,omitempty"`
}

// canonicalBytes is the byte string that is signed: a fixed-order,
// length-unambiguous encoding of the semantic fields. JSON is not used for
// signing because field order and float formatting are not canonical.
func (in *Info) canonicalBytes() []byte {
	return in.appendCanonical(make([]byte, 0, 96))
}

// appendCanonical appends the record's canonical bytes to b.
func (in *Info) appendCanonical(b []byte) []byte {
	b = append(b, "mdrep/eval/v1\x00"...)
	b = strconv.AppendInt(b, int64(len(in.FileID)), 10)
	b = append(b, ':')
	b = append(b, in.FileID...)
	b = strconv.AppendInt(b, int64(len(in.OwnerID)), 10)
	b = append(b, ':')
	b = append(b, in.OwnerID...)
	b = strconv.AppendFloat(b, in.Evaluation, 'g', 17, 64)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(in.Timestamp), 10)
	return b
}

// Sign fills Signature using the owner's identity. It fails if the signer
// is not the record's owner: peers may only publish their own evaluations.
func (in *Info) Sign(id *identity.Identity) error {
	if id.ID() != in.OwnerID {
		return fmt.Errorf("eval: signer %s is not owner %s", id.ID(), in.OwnerID)
	}
	in.Signature = id.Sign(in.canonicalBytes())
	return nil
}

// ErrOutOfRange is returned for evaluations outside [0,1].
var ErrOutOfRange = errors.New("eval: evaluation outside [0,1]")

// Verify checks the record's range and signature against the directory.
// This is the defence against attack 1 of §4.2 (forged or distorted
// evaluations).
func (in *Info) Verify(dir *identity.Directory) error {
	if err := in.checkRange(); err != nil {
		return err
	}
	return dir.VerifyWith(in.OwnerID, in.canonicalBytes(), in.Signature)
}

func (in *Info) checkRange() error {
	if in.Evaluation < 0 || in.Evaluation > 1 {
		return ErrOutOfRange
	}
	return nil
}

// SignList returns the list signature of infos, an evaluation list its
// owner id serves: id's signature over the list message, followed by the
// list's length as a uvarint. The message is a tag, the owner, the
// timestamp and the length, then each record's canonical bytes behind
// a 4-byte length, in FileID order. The records must all be id's, carry
// one timestamp and be sorted by FileID without repeats, as
// Peer.SignedEvaluations serves them. The caller sets the result as
// every record's ListSignature.
func SignList(id *identity.Identity, infos []Info) ([]byte, error) {
	idx := make([]int, len(infos))
	for k := range infos {
		in := &infos[k]
		if in.OwnerID != id.ID() {
			return nil, fmt.Errorf("eval: signer %s is not owner %s", id.ID(), in.OwnerID)
		}
		if k > 0 && (in.Timestamp != infos[0].Timestamp || in.FileID <= infos[k-1].FileID) {
			return nil, fmt.Errorf("eval: list record %d breaks one timestamp and strict FileID order", k)
		}
		idx[k] = k
	}
	sig := id.Sign(appendListMessage(nil, infos, idx))
	return binary.AppendUvarint(sig, uint64(len(infos))), nil
}

// listTag opens every signed list message, so no list message is ever a
// record's canonical bytes.
const listTag = "mdrep/evallist/v1\x00"

// appendListMessage appends to b the message a list signature covers:
// the records infos[idx[0]], infos[idx[1]], … in that order, which share
// the first one's owner and timestamp.
func appendListMessage(b []byte, infos []Info, idx []int) []byte {
	first := &infos[idx[0]]
	b = slices.Grow(b, len(listTag)+64+len(idx)*128)
	b = append(b, listTag...)
	b = strconv.AppendInt(b, int64(len(first.OwnerID)), 10)
	b = append(b, ':')
	b = append(b, first.OwnerID...)
	b = strconv.AppendInt(b, int64(first.Timestamp), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(len(idx)), 10)
	b = append(b, ':')
	for _, i := range idx {
		at := len(b)
		b = infos[i].appendCanonical(append(b, 0, 0, 0, 0))
		binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	}
	return b
}

// splitListSignature splits a ListSignature into the signature and the
// list length it declares. ok is false unless ls is a 64-byte signature
// followed by exactly one uvarint.
func splitListSignature(ls []byte) (sig []byte, n uint64, ok bool) {
	if len(ls) <= ed25519.SignatureSize {
		return nil, 0, false
	}
	n, k := binary.Uvarint(ls[ed25519.SignatureSize:])
	if k <= 0 || ed25519.SignatureSize+k != len(ls) {
		return nil, 0, false
	}
	return ls[:ed25519.SignatureSize], n, true
}

// VerifyAll checks every record and returns the results by index. Each
// result is infos[i].Verify(dir), with one exception: a record that is
// part of a whole list whose list signature verifies is accepted on the
// strength of that signature, and only its range is checked.
//
// Records with a well-formed ListSignature are grouped by owner,
// timestamp and list signature. A group is a whole list when it holds at
// least two records, as many as the length its list signature declares,
// and no file twice; it costs one verification of the list message over
// the group's records in FileID order. Every other record is checked by
// its own signature: records without a list signature, partial groups
// (one owner's records among a file's DHT records, say) and the members
// of a group whose list signature fails, so a forged entry is still
// dropped on its own. A group has at least two records, so a hostile
// batch costs at most 1.5 times the per-record checks. Nothing caches a
// verified result.
//
// The list checks, then the record checks, are split into contiguous
// ranges on up to GOMAXPROCS goroutines; each result depends on the
// records alone, so the results, and anything a caller merges from them
// in index order, do not depend on the worker count. dir is only read.
func VerifyAll(dir *identity.Directory, infos []Info) []error {
	errs := make([]error, len(infos))
	lists := wholeLists(infos)
	listErrs := make([]error, len(lists))
	parallel(len(lists), func(g int) {
		idx := lists[g]
		first := &infos[idx[0]]
		sig, _, _ := splitListSignature(first.ListSignature)
		listErrs[g] = dir.VerifyWith(first.OwnerID, appendListMessage(nil, infos, idx), sig)
	})
	covered := make([]bool, len(infos))
	for g, idx := range lists {
		if listErrs[g] != nil {
			continue
		}
		for _, i := range idx {
			covered[i] = true
			errs[i] = infos[i].checkRange()
		}
	}
	todo := make([]int, 0, len(infos))
	for i := range infos {
		if !covered[i] {
			todo = append(todo, i)
		}
	}
	parallel(len(todo), func(k int) {
		i := todo[k]
		errs[i] = infos[i].Verify(dir)
	})
	return errs
}

// wholeLists returns the index groups of infos that VerifyAll checks by
// their list signature, each in FileID order (see VerifyAll).
func wholeLists(infos []Info) [][]int {
	var listed []int
	for i := range infos {
		if _, n, ok := splitListSignature(infos[i].ListSignature); ok && n >= 2 && n <= uint64(len(infos)) {
			listed = append(listed, i)
		}
	}
	if len(listed) < 2 {
		return nil
	}
	sameList := func(a, b *Info) int {
		return cmp.Or(cmp.Compare(a.OwnerID, b.OwnerID), cmp.Compare(a.Timestamp, b.Timestamp),
			bytes.Compare(a.ListSignature, b.ListSignature))
	}
	slices.SortFunc(listed, func(x, y int) int {
		a, b := &infos[x], &infos[y]
		return cmp.Or(sameList(a, b), cmp.Compare(a.FileID, b.FileID))
	})
	var lists [][]int
	for lo := 0; lo < len(listed); {
		hi := lo + 1
		whole := true
		for ; hi < len(listed) && sameList(&infos[listed[lo]], &infos[listed[hi]]) == 0; hi++ {
			whole = whole && infos[listed[hi-1]].FileID != infos[listed[hi]].FileID
		}
		if _, n, _ := splitListSignature(infos[listed[lo]].ListSignature); whole && uint64(hi-lo) == n {
			lists = append(lists, listed[lo:hi])
		}
		lo = hi
	}
	return lists
}

// parallel runs fn(0), …, fn(n-1) split into contiguous ranges on up to
// GOMAXPROCS goroutines, the first range on the calling goroutine. With
// one worker or one item it starts no goroutine.
func parallel(n int, fn func(k int)) {
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	run := func(lo, hi int) {
		for k := lo; k < hi; k++ {
			fn(k)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w*n/workers, (w+1)*n/workers)
		}()
	}
	run(0, n/workers)
	wg.Wait()
}

// Marshal encodes the record as JSON for DHT storage and the TCP wire.
func (in *Info) Marshal() ([]byte, error) {
	return json.Marshal(in)
}

// UnmarshalInfo decodes a JSON-encoded record.
func UnmarshalInfo(data []byte) (*Info, error) {
	var in Info
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("eval: unmarshal info: %w", err)
	}
	return &in, nil
}
