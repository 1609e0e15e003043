package eval

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
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
}

// canonicalBytes is the byte string that is signed: a fixed-order,
// length-unambiguous encoding of the semantic fields. JSON is not used for
// signing because field order and float formatting are not canonical.
func (in *Info) canonicalBytes() []byte {
	b := make([]byte, 0, 96)
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
	if in.Evaluation < 0 || in.Evaluation > 1 {
		return ErrOutOfRange
	}
	return dir.VerifyWith(in.OwnerID, in.canonicalBytes(), in.Signature)
}

// VerifyAll runs Verify on every record and returns the results by
// index: errs[i] is infos[i].Verify(dir). The records are split into
// contiguous index ranges checked on up to GOMAXPROCS goroutines, so the
// results, and anything a caller merges from them in index order, do not
// depend on the worker count. With one worker or one record it runs on
// the calling goroutine alone. dir is only read.
func VerifyAll(dir *identity.Directory, infos []Info) []error {
	n := len(infos)
	errs := make([]error, n)
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	verifyRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			errs[i] = infos[i].Verify(dir)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			verifyRange(w*n/workers, (w+1)*n/workers)
		}()
	}
	verifyRange(0, n/workers)
	wg.Wait()
	return errs
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
