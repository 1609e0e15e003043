package dht

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"mdrep/internal/eval"
	"mdrep/internal/wire"
)

// goldenTrace is a TRC1 header as a sampled span sends it.
const goldenTrace = "TRC1\x01\x02\x03\x04\x05\x06\x07\x08\x11\x12\x13\x14\x15\x16\x17\x18\x01\xd4\xa7\x03\x4e"

// goldenRecords holds strings JSON would escape, a signature, a list
// signature the frame drops, and a nil signature.
func goldenRecords() []StoredRecord {
	return []StoredRecord{
		{Key: 42, Info: eval.Info{FileID: "<b>&\u2028", OwnerID: "owner&<>", Evaluation: 0.25, Timestamp: 7,
			Signature: []byte{0, 1, 0xfe}, ListSignature: []byte{9, 9}}},
		{Key: ^ID(0), Info: eval.Info{FileID: "f", OwnerID: "plain", Evaluation: 1, Timestamp: -1}},
	}
}

// goldenRequests is one request of every method, the retrieve traced.
func goldenRequests() []wireRequest {
	return []wireRequest{
		{Method: methodFindSuccessor, ID: 0x0102030405060708},
		{Method: methodSuccessors},
		{Method: methodPredecessor},
		{Method: methodNotify, Node: NodeRef{ID: 3, Addr: "127.0.0.1:1&<"}},
		{Method: methodPing},
		{Method: methodStore, Records: goldenRecords(), Replicate: true},
		{Method: methodRetrieve, ID: 1 << 63, Trace: []byte(goldenTrace)},
	}
}

// goldenResponses is one answer of every method, and an error.
func goldenResponses() []wireResponse {
	return []wireResponse{
		{Method: methodError, Error: "dht: <nope> & \u2028"},
		{Method: methodFindSuccessor, Node: NodeRef{ID: 1, Addr: "a"}},
		{Method: methodSuccessors, Nodes: []NodeRef{{ID: 2, Addr: "b"}, {ID: 3, Addr: "<&\u2028"}}},
		{Method: methodPredecessor, Node: NodeRef{ID: 4, Addr: "p"}, HasNode: true},
		{Method: methodPredecessor},
		{Method: methodNotify},
		{Method: methodPing},
		{Method: methodStore},
		{Method: methodRetrieve, Records: goldenRecords()},
		{Method: methodRetrieve},
	}
}

// TestWireFrameBytesGolden pins every request and response kind byte for
// byte, length prefix included.
func TestWireFrameBytesGolden(t *testing.T) {
	const (
		rec1 = "\x00\x00\x00\x00\x00\x00\x00\x2a" + "\x07<b>&\xe2\x80\xa8" + "\x08owner&<>" +
			"\x3f\xd0\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\x00\x07" + "\x03\x00\x01\xfe"
		rec2 = "\xff\xff\xff\xff\xff\xff\xff\xff" + "\x01f" + "\x05plain" +
			"\x3f\xf0\x00\x00\x00\x00\x00\x00" + "\xff\xff\xff\xff\xff\xff\xff\xff" + "\x00"
	)
	wantRequests := []string{
		"\x00\x00\x00\x0d" + "DHQ1\x01" + "\x01\x02\x03\x04\x05\x06\x07\x08",
		"\x00\x00\x00\x05" + "DHQ1\x02",
		"\x00\x00\x00\x05" + "DHQ1\x03",
		"\x00\x00\x00\x1b" + "DHQ1\x04" + "\x00\x00\x00\x00\x00\x00\x00\x03" + "\x0d127.0.0.1:1&<",
		"\x00\x00\x00\x05" + "DHQ1\x05",
		"\x00\x00\x00\x55" + "DHQ1\x06" + "\x01" + "\x02" + rec1 + rec2,
		"\x00\x00\x00\x26" + "DHQ1\x07" + "\x80\x00\x00\x00\x00\x00\x00\x00" + goldenTrace,
	}
	wantResponses := []string{
		"\x00\x00\x00\x16" + "DHR1\x00" + "dht: <nope> & \xe2\x80\xa8",
		"\x00\x00\x00\x0f" + "DHR1\x01" + "\x00\x00\x00\x00\x00\x00\x00\x01\x01a",
		"\x00\x00\x00\x1e" + "DHR1\x02" + "\x02" + "\x00\x00\x00\x00\x00\x00\x00\x02\x01b" +
			"\x00\x00\x00\x00\x00\x00\x00\x03\x05<&\xe2\x80\xa8",
		"\x00\x00\x00\x10" + "DHR1\x03" + "\x01" + "\x00\x00\x00\x00\x00\x00\x00\x04\x01p",
		"\x00\x00\x00\x06" + "DHR1\x03" + "\x00",
		"\x00\x00\x00\x05" + "DHR1\x04",
		"\x00\x00\x00\x05" + "DHR1\x05",
		"\x00\x00\x00\x05" + "DHR1\x06",
		"\x00\x00\x00\x54" + "DHR1\x07" + "\x02" + rec1 + rec2,
		"\x00\x00\x00\x06" + "DHR1\x07" + "\x00",
	}
	framed := func(body []byte) string {
		t.Helper()
		var buf bytes.Buffer
		if err := wire.WriteRawFrame(&buf, append(make([]byte, wire.FrameHeader), body...)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for i, req := range goldenRequests() {
		body, err := appendRequest(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		if got := framed(body); got != wantRequests[i] || requestSize(&req) != len(body) {
			t.Errorf("%s request (size %d):\n got %q\nwant %q", req.Method, requestSize(&req), got, wantRequests[i])
		}
	}
	for i, resp := range goldenResponses() {
		body := appendResponse(nil, &resp)
		if got := framed(body); got != wantResponses[i] || responseSize(&resp) != len(body) {
			t.Errorf("response %d (size %d):\n got %q\nwant %q", i, responseSize(&resp), got, wantResponses[i])
		}
	}
}

// sameRecords compares records bit for bit: evaluations by their bits,
// signatures by their bytes and nil-ness. A decoded record carries no
// list signature.
func sameRecords(got, sent []StoredRecord) bool {
	if len(got) != len(sent) {
		return false
	}
	for k := range got {
		a, b := &got[k], &sent[k]
		sig := b.Info.Signature
		if len(sig) == 0 {
			sig = nil
		}
		if a.Key != b.Key || a.Info.FileID != b.Info.FileID || a.Info.OwnerID != b.Info.OwnerID ||
			a.Info.Timestamp != b.Info.Timestamp || a.Info.ListSignature != nil ||
			math.Float64bits(a.Info.Evaluation) != math.Float64bits(b.Info.Evaluation) ||
			!bytes.Equal(a.Info.Signature, sig) || (a.Info.Signature == nil) != (sig == nil) {
			return false
		}
	}
	return true
}

// TestWireRecordsRoundTrip: records survive a store request and a
// retrieve answer bit for bit, NaN payloads and negative zero included;
// an empty signature reads back as nil and the list signature is gone.
func TestWireRecordsRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	recs := append(goldenRecords(),
		StoredRecord{Key: 1, Info: eval.Info{FileID: "n", OwnerID: "x", Evaluation: nan, Signature: []byte{}}},
		StoredRecord{Key: 2, Info: eval.Info{Evaluation: math.Copysign(0, -1), Timestamp: math.MinInt64}},
		StoredRecord{Key: 3, Info: eval.Info{FileID: "i", OwnerID: "y", Evaluation: math.Inf(-1), Signature: bytes.Repeat([]byte{7}, 300)}},
	)
	body, err := appendRequest(nil, &wireRequest{Method: methodStore, Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodeRequest(body)
	if err != nil || req.Method != methodStore || req.Replicate || !sameRecords(req.Records, recs) {
		t.Fatalf("store request: %+v, %v", req, err)
	}
	resp, err := decodeResponse(appendResponse(nil, &wireResponse{Method: methodRetrieve, Records: recs}))
	if err != nil || !sameRecords(resp.Records, recs) {
		t.Fatalf("retrieve answer: %+v, %v", resp, err)
	}
}

// TestWireDecodedRecordsOwnTheirBytes: a decoded record shares no byte
// with its frame, so a record Storage keeps does not keep its frame
// alive, and a later write to the frame buffer cannot reach it.
func TestWireDecodedRecordsOwnTheirBytes(t *testing.T) {
	body, err := appendRequest(nil, &wireRequest{Method: methodStore, Records: goldenRecords()})
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xaa
	}
	if !sameRecords(req.Records, goldenRecords()) {
		t.Fatalf("records changed with their frame: %+v", req.Records)
	}
}

// TestWireDecodeRefuses: each malformed body fails with
// wire.ErrMalformed: a wrong magic, an answer to an unknown method, a
// cut at every byte offset of a valid frame, a trailing byte, a
// non-minimal uvarint, a flag byte other than 0 and 1, and counts the
// body cannot hold.
func TestWireDecodeRefuses(t *testing.T) {
	type body struct {
		name string
		b    []byte
		req  bool
	}
	var cases []body
	reqBody := func(req wireRequest) []byte {
		b, err := appendRequest(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// A body cut anywhere is refused. An untraced request and an answer
	// other than an error have no valid prefix: their fields and counts
	// say how many bytes follow.
	cut := []body{
		{"store", reqBody(wireRequest{Method: methodStore, Records: goldenRecords(), Replicate: true}), true},
		{"notify", reqBody(goldenRequests()[3]), true},
		{"find_successor", reqBody(goldenRequests()[0]), true},
	}
	for _, resp := range goldenResponses()[1:] {
		cut = append(cut, body{resp.Method.String() + " answer", appendResponse(nil, &resp), false})
	}
	for _, c := range cut {
		for k := 0; k < len(c.b); k++ {
			cases = append(cases, body{fmt.Sprintf("%s cut at %d", c.name, k), c.b[:k:k], c.req})
		}
		cases = append(cases, body{c.name + " with a trailing byte", append(bytes.Clone(c.b), 0), c.req})
	}
	cases = append(cases,
		body{"request magic", []byte("DHQ2\x05"), true},
		body{"response magic as a request", []byte("DHR1\x05"), true},
		body{"JSON request", []byte(`{"method":"ping"}`), true},
		body{"trace header one byte short", append([]byte("DHQ1\x05"), goldenTrace[:24]...), true},
		body{"trace header one byte long", append([]byte("DHQ1\x05"+goldenTrace), 0), true},
		body{"unknown method with fields", []byte("DHQ1\x7f\x00"), true},
		body{"replicate flag 2", []byte("DHQ1\x06\x02\x00"), true},
		body{"non-minimal record count", []byte("DHQ1\x06\x00\x80\x00"), true},
		body{"record count 2^62", binary.AppendUvarint([]byte("DHQ1\x06\x00"), 1<<62), true},
		body{"response magic", []byte("DHQ1\x05"), false},
		body{"answer to an unknown method", []byte("DHR1\x7f"), false},
		body{"has-node flag 2", []byte("DHR1\x03\x02"), false},
		body{"non-minimal node count", []byte("DHR1\x02\x80\x00"), false},
		body{"uvarint overflow", []byte("DHR1\x07" + strings.Repeat("\xff", 10) + "\x01"), false},
		body{"record count 2^62", binary.AppendUvarint([]byte("DHR1\x07"), 1<<62), false},
		body{"address longer than the bytes", []byte("DHR1\x01" + "\x00\x00\x00\x00\x00\x00\x00\x01" + "\x7fa"), false},
	)
	for _, c := range cases {
		var err error
		if c.req {
			_, err = decodeRequest(c.b)
		} else {
			_, err = decodeResponse(c.b)
		}
		if !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s (%q): err = %v, want wire.ErrMalformed", c.name, c.b, err)
		}
	}
}

// TestWireDecodeCountAllocatesNothing: a declared count is checked
// against the bytes present before anything is allocated for it, so a
// 2^62-record claim in a short body costs a refusal, not an allocation.
func TestWireDecodeCountAllocatesNothing(t *testing.T) {
	store := binary.AppendUvarint([]byte("DHQ1\x06\x00"), 1<<62)
	retrieve := binary.AppendUvarint([]byte("DHR1\x07"), 1<<62)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		if _, err := decodeRequest(store); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("store of 2^62 records: err = %v", err)
		}
		if _, err := decodeResponse(retrieve); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("retrieve answer of 2^62 records: err = %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("20 refusals allocated %d bytes", n)
	}
}

func TestWireRequestRefusesBadTrace(t *testing.T) {
	if _, err := appendRequest(nil, &wireRequest{Method: methodPing, Trace: []byte("short")}); err == nil {
		t.Fatal("a 5-byte trace header was encoded")
	}
}
