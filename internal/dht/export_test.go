package dht

import (
	"fmt"

	"mdrep/internal/wire"
)

// CodecRoundTrip runs the TCP transport's codec over a store request of
// store and a retrieve answer of answer: each is encoded into a frame as
// its sender does, then its body decoded as its receiver does. It
// returns the two frames' bytes. BenchmarkDHTFrameCodec times it from
// the external test package, which may import internal/walk.
func CodecRoundTrip(store, answer []StoredRecord) (int, error) {
	req, err := requestFrame(&wireRequest{Method: methodStore, Records: store, Replicate: true})
	if err != nil {
		return 0, err
	}
	got, err := decodeRequest(req[wire.FrameHeader:])
	if err != nil || len(got.Records) != len(store) {
		return 0, fmt.Errorf("store request of %d records: %d back, %w", len(store), len(got.Records), err)
	}
	resp := responseFrame(&wireResponse{Method: methodRetrieve, Records: answer})
	back, err := decodeResponse(resp[wire.FrameHeader:])
	if err != nil || len(back.Records) != len(answer) {
		return 0, fmt.Errorf("retrieve answer of %d records: %d back, %w", len(answer), len(back.Records), err)
	}
	return len(req) + len(resp), nil
}
