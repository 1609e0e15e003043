package peer

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/identity"
)

// FuzzExchangeFrameDecode drives the evaluation-exchange codec with
// arbitrary bytes. Decoding them as a request or a response must error
// or succeed, never panic; a body either decoder accepts must re-encode
// to the same bytes, and a list may not hold more records than its bytes
// can. The same bytes, read as a recipe for records, must survive
// encode and decode bit for bit.
func FuzzExchangeFrameDecode(f *testing.F) {
	req, _ := appendRequest(nil, exchangeRequest{Method: methodEvaluations})
	f.Add(req)
	f.Add(appendResponse(nil, &exchangeResponse{Evaluations: goldenInfos}))
	f.Add(appendResponse(nil, &exchangeResponse{Refused: true, Error: "no"}))
	f.Add(binary.AppendUvarint([]byte("EXR1\x00"), 1<<62)) // count 2^62 in 14 bytes
	f.Add([]byte(`{"method":"evaluations"}`))              // the JSON request of old
	f.Add([]byte("EXR1\x00\x80\x00"))                      // non-minimal count

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := decodeRequest(data); err == nil {
			if back, err := appendRequest(nil, req); err != nil || !bytes.Equal(back, data) {
				t.Fatalf("accepted request re-encodes to %q, %v", back, err)
			}
		}
		if resp, err := decodeResponse(data); err == nil {
			if len(resp.Evaluations) > len(data)/minRecordSize {
				t.Fatalf("%d records decoded from %d bytes", len(resp.Evaluations), len(data))
			}
			if back := appendResponse(nil, &resp); !bytes.Equal(back, data) {
				t.Fatalf("accepted response re-encodes to %q", back)
			}
		}
		infos := recordsFrom(data)
		resp, err := decodeResponse(appendResponse(nil, &exchangeResponse{Evaluations: infos}))
		if err != nil || !sameInfos(resp.Evaluations, infos) {
			t.Fatalf("round trip of %+v: %+v, %v", infos, resp.Evaluations, err)
		}
	})
}

// recordsFrom reads data as a recipe for records, 11 bytes each: an
// owner, a file, a timestamp and a list signature from small sets, so
// runs form and break, the evaluation's bits (any float64, NaN payloads
// included) and a signature length, 0 meaning nil.
func recordsFrom(data []byte) []eval.Info {
	owners := []identity.PeerID{"<&", "\u2028", ""}
	files := []eval.FileID{"f", "<&", "\u2028", ""}
	var infos []eval.Info
	for ; len(data) >= 11; data = data[11:] {
		in := eval.Info{
			OwnerID:    owners[int(data[0]&0x0f)%len(owners)],
			FileID:     files[data[1]&3],
			Timestamp:  time.Duration(int8(data[1]) >> 5),
			Evaluation: math.Float64frombits(binary.BigEndian.Uint64(data[2:10])),
		}
		if data[0]&0x10 != 0 {
			in.ListSignature = []byte{data[0] >> 5, 0xff}
		}
		if n := int(data[10] % 70); n > 0 {
			in.Signature = bytes.Repeat([]byte{data[10]}, n)
		}
		infos = append(infos, in)
	}
	return infos
}
