package peer

import (
	"crypto/ed25519"
	"encoding/binary"
	"math"
	"sort"
	"sync"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/identity"
)

// signMemo remembers, per file, the signature of the entry a peer last
// served, so SignedEvaluations signs an entry only when its content
// changes. ed25519 signing is deterministic (RFC 8032 §5.1.6), so a
// reused signature is byte for byte the one a fresh Sign would make. The
// memo is keyed on every signed field that can change: the file, the
// evaluation's bits and the timestamp (the owner is the peer itself). A
// vote, a retention signal or a clock advance therefore misses the memo,
// and nothing has to invalidate it.
//
// It also keeps the list signature of the last list served. The list is
// the memo's entries, so it changes only when an entry is signed again
// or dropped, and only then is it signed again.
//
// mu is a leaf lock: it is never held while acquiring Peer.mu.
type signMemo struct {
	mu      sync.Mutex
	entries map[eval.FileID]signedEntry
	// list is the last list's eval.SignList result; nil when that list
	// had fewer than two entries or an entry has changed since.
	list      []byte
	made      int // entry signatures made, for the memo's tests
	listsMade int // list signatures made, for the memo's tests
}

type signedEntry struct {
	evalBits  uint64
	timestamp time.Duration
	sig       []byte
}

// sign returns snap as records owned by id, stamped now and sorted by
// file. Each record carries its own copy of its signature, never the
// memo's; the records share one copy of the list signature, which a
// list of fewer than two entries goes without, since eval.VerifyAll
// never checks a group of one by it. Files no longer in snap leave the
// memo.
func (m *signMemo) sign(id *identity.Identity, snap map[eval.FileID]float64, now time.Duration) ([]eval.Info, error) {
	out := make([]eval.Info, 0, len(snap))
	sigs := make([]byte, 0, (len(snap)+1)*ed25519.SignatureSize+binary.MaxVarintLen64)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = make(map[eval.FileID]signedEntry, len(snap))
	}
	for f := range m.entries {
		if _, live := snap[f]; !live {
			delete(m.entries, f)
			m.list = nil
		}
	}
	for f, v := range snap {
		info := eval.Info{FileID: f, OwnerID: id.ID(), Evaluation: v, Timestamp: now}
		bits := math.Float64bits(v)
		e, ok := m.entries[f]
		if !ok || e.evalBits != bits || e.timestamp != now {
			if err := info.Sign(id); err != nil {
				return nil, err
			}
			m.made++
			e = signedEntry{evalBits: bits, timestamp: now, sig: info.Signature}
			m.entries[f] = e
			m.list = nil
		}
		start := len(sigs)
		sigs = append(sigs, e.sig...)
		info.Signature = sigs[start:len(sigs):len(sigs)]
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FileID < out[j].FileID })
	if len(out) < 2 {
		m.list = nil
		return out, nil
	}
	if m.list == nil {
		list, err := eval.SignList(id, out)
		if err != nil {
			return nil, err
		}
		m.list = list
		m.listsMade++
	}
	start := len(sigs)
	sigs = append(sigs, m.list...)
	for k := range out {
		out[k].ListSignature = sigs[start:len(sigs):len(sigs)]
	}
	return out, nil
}
