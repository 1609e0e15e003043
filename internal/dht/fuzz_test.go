package dht

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"mdrep/internal/obs"
	"mdrep/internal/wire"
)

// frame wraps body in a wire frame with the given declared length,
// which need not match the actual body size.
func frame(declared uint32, body []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], declared)
	return append(hdr[:], body...)
}

// FuzzWireRequestDecode throws arbitrary bytes at the server-side
// request decode + dispatch path: whatever arrives, the server must
// either serve the request or return an error — never panic. A body the
// decoder accepts re-encodes to itself, at the size requestSize gives,
// and holds no more records than its bytes can.
func FuzzWireRequestDecode(f *testing.F) {
	for _, req := range goldenRequests() {
		body, err := appendRequest(nil, &req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"method":"ping"}`))                                // the JSON request of old
	f.Add([]byte("DHQ1\x7f"))                                         // unknown method
	f.Add(binary.AppendUvarint([]byte("DHQ1\x06\x00"), 1<<62))        // count 2^62 in a short body
	f.Add([]byte("DHQ1\x06\x00\x80\x00"))                             // non-minimal count
	f.Add([]byte("DHQ1\x06\x02\x00"))                                 // replicate flag 2
	f.Add(append([]byte("DHQ1\x05"), bytes.Repeat([]byte{1}, 24)...)) // a trace header one byte short

	srv := &TCPServer{}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return // malformed bodies must error, and they did
		}
		if len(req.Records) > len(data)/minRecordSize {
			t.Fatalf("%d records decoded from %d bytes", len(req.Records), len(data))
		}
		back, err := appendRequest(nil, &req)
		if err != nil || !bytes.Equal(back, data) || requestSize(&req) != len(data) {
			t.Fatalf("accepted request re-encodes to %q (size %d), %v", back, requestSize(&req), err)
		}
		// Whatever decoded must dispatch without panicking.
		_ = srv.dispatch(nullHandler{}, req, obs.SpanContext{})
	})
}

// FuzzWireResponseDecode is a client reading from a hostile server:
// every body must decode or return an error, never panic. A body the
// decoder accepts re-encodes to itself, at the size responseSize gives,
// and holds no more records or nodes than its bytes can.
func FuzzWireResponseDecode(f *testing.F) {
	for _, resp := range goldenResponses() {
		f.Add(appendResponse(nil, &resp))
	}
	f.Add(binary.AppendUvarint([]byte("DHR1\x07"), 1<<62)) // count 2^62 in a short body
	f.Add([]byte("DHR1\x02\x80\x00"))                      // non-minimal count
	f.Add([]byte("DHR1\x03\x02"))                          // has-node flag 2
	f.Add([]byte("DHR1\x7f"))                              // answer to an unknown method
	f.Add([]byte(`{"records":[]}`))                        // the JSON response of old

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := decodeResponse(data)
		if err != nil {
			return
		}
		if len(resp.Records) > len(data)/minRecordSize || len(resp.Nodes) > len(data)/minNodeSize {
			t.Fatalf("%d records and %d nodes decoded from %d bytes", len(resp.Records), len(resp.Nodes), len(data))
		}
		if back := appendResponse(nil, &resp); !bytes.Equal(back, data) || responseSize(&resp) != len(data) {
			t.Fatalf("accepted response re-encodes to %q (size %d)", back, responseSize(&resp))
		}
	})
}

// TestReadFrameBoundedAllocation pins the anti-over-allocation
// property: a hostile header declaring a MaxFrame body against a
// near-empty stream must not cost a MaxFrame allocation.
func TestReadFrameBoundedAllocation(t *testing.T) {
	hostile := frame(wire.MaxFrame, []byte("tiny"))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rounds = 16
	for i := 0; i < rounds; i++ {
		_, err := wire.ReadRawFrame(bytes.NewReader(hostile))
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	}
	runtime.ReadMemStats(&after)
	spent := after.TotalAlloc - before.TotalAlloc
	// An eager decoder would allocate rounds × 4MB = 64MB here; the
	// bounded reader stays under one chunk (64KB) per attempt.
	if limit := uint64(rounds * 1 << 20); spent > limit {
		t.Fatalf("decoding %d hostile frames allocated %d bytes, want < %d", rounds, spent, limit)
	}
}
