package peer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"mdrep/internal/eval"
	"mdrep/internal/wire"
)

// goldenInfos is two owners' records: strings JSON would escape, a nil
// signature, two list signatures.
var goldenInfos = []eval.Info{
	{FileID: "<&", OwnerID: "o\u2028", Evaluation: 0.125, Timestamp: 3, Signature: []byte{9, 8}, ListSignature: []byte{7, 6, 2}},
	{FileID: "\u2028", OwnerID: "o\u2028", Evaluation: 1, Timestamp: 3, ListSignature: []byte{7, 6, 2}},
	{FileID: "f", OwnerID: "<&", Evaluation: 0, Timestamp: 1 << 40, Signature: []byte{1}, ListSignature: []byte{5}},
}

// TestExchangeFrameBytesGolden pins the exchange's request, list and
// error frames byte for byte, length prefix included.
func TestExchangeFrameBytesGolden(t *testing.T) {
	trace := "TRC1\x01\x02\x03\x04\x05\x06\x07\x08\x11\x12\x13\x14\x15\x16\x17\x18\x01\xd4\xa7\x03\x4e"
	for _, tc := range []struct {
		name string
		body func() ([]byte, error)
		want string
	}{
		{"request", func() ([]byte, error) {
			return appendRequest(nil, exchangeRequest{Method: methodEvaluations})
		}, "\x00\x00\x00\x05" + "EXQ1\x01"},
		{"traced request", func() ([]byte, error) {
			return appendRequest(nil, exchangeRequest{Method: methodEvaluations, Trace: []byte(trace)})
		}, "\x00\x00\x00\x1e" + "EXQ1\x01" + trace},
		{"list", func() ([]byte, error) {
			return appendResponse(nil, &exchangeResponse{Evaluations: goldenInfos}), nil
		}, "\x00\x00\x00\x4d" + "EXR1\x00" + "\x03" +
			// run: owner "o\u2028", timestamp 3, list signature, 2 records
			"\x04o\xe2\x80\xa8" + "\x00\x00\x00\x00\x00\x00\x00\x03" + "\x03\x07\x06\x02" + "\x02" +
			"\x02<&" + "\x3f\xc0\x00\x00\x00\x00\x00\x00" + "\x02\x09\x08" +
			"\x03\xe2\x80\xa8" + "\x3f\xf0\x00\x00\x00\x00\x00\x00" + "\x00" +
			// run: owner "<&", timestamp 2^40, list signature, 1 record
			"\x02<&" + "\x00\x00\x01\x00\x00\x00\x00\x00" + "\x01\x05" + "\x01" +
			"\x01f" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x01\x01"},
		{"empty list", func() ([]byte, error) {
			return appendResponse(nil, &exchangeResponse{}), nil
		}, "\x00\x00\x00\x06" + "EXR1\x00\x00"},
		{"error", func() ([]byte, error) {
			return appendResponse(nil, &exchangeResponse{Refused: true, Error: "unknown method \"<&>\"\u2028"}), nil
		}, "\x00\x00\x00\x1c" + "EXR1\x01" + "unknown method \"<&>\"\xe2\x80\xa8"},
	} {
		body, err := tc.body()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := wire.WriteRawFrame(&buf, append(make([]byte, wire.FrameHeader), body...)); err != nil {
			t.Fatal(err)
		}
		if buf.String() != tc.want {
			t.Errorf("%s frame:\n got %q\nwant %q", tc.name, buf.Bytes(), tc.want)
		}
	}
}

// sameInfos compares records bit for bit: evaluations by their bits,
// signatures by their bytes and nil-ness.
func sameInfos(a, b []eval.Info) bool {
	if len(a) != len(b) {
		return false
	}
	sameBytes := func(x, y []byte) bool { return bytes.Equal(x, y) && (x == nil) == (y == nil) }
	for k := range a {
		x, y := &a[k], &b[k]
		if x.FileID != y.FileID || x.OwnerID != y.OwnerID || x.Timestamp != y.Timestamp ||
			math.Float64bits(x.Evaluation) != math.Float64bits(y.Evaluation) ||
			!sameBytes(x.Signature, y.Signature) || !sameBytes(x.ListSignature, y.ListSignature) {
			return false
		}
	}
	return true
}

func TestExchangeListRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	lists := [][]eval.Info{
		goldenInfos,
		{{FileID: "a", OwnerID: "x", Evaluation: nan}, {FileID: "b", OwnerID: "y", Evaluation: math.Inf(-1), Timestamp: -5}},
		// Runs split on any header change, and a header may come back.
		{{FileID: "a", OwnerID: "x"}, {FileID: "a", OwnerID: "x", Timestamp: 1}, {FileID: "a", OwnerID: "x"}},
		{{FileID: "", OwnerID: "", Evaluation: math.Copysign(0, -1)}},
	}
	for _, infos := range lists {
		resp, err := decodeResponse(appendResponse(nil, &exchangeResponse{Evaluations: infos}))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Refused || !sameInfos(resp.Evaluations, infos) {
			t.Fatalf("round trip of %+v:\n got %+v", infos, resp)
		}
	}
}

// TestExchangeDecodeSharesListSignature: the records of one run share
// one copy of its list signature, capped so an append to one record's
// bytes cannot reach another's.
func TestExchangeDecodeSharesListSignature(t *testing.T) {
	resp, err := decodeResponse(appendResponse(nil, &exchangeResponse{Evaluations: goldenInfos}))
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Evaluations
	if &got[0].ListSignature[0] != &got[1].ListSignature[0] {
		t.Fatal("records of one run hold separate list-signature copies")
	}
	for _, in := range got {
		if cap(in.Signature) != len(in.Signature) || cap(in.ListSignature) != len(in.ListSignature) {
			t.Fatalf("uncapped bytes in %+v", in)
		}
	}
}

func TestExchangeDecodeRefuses(t *testing.T) {
	list := appendResponse(nil, &exchangeResponse{Evaluations: goldenInfos})
	huge := binary.AppendUvarint([]byte("EXR1\x00"), 1<<62)
	for _, tc := range []struct {
		name string
		body string
		req  bool
	}{
		{"request magic", "EXQ2\x01", true},
		{"request with trailing byte", "EXQ1\x01\x00", true},
		{"truncated request", "EXQ", true},
		{"JSON request", `{"method":"evaluations"}`, true},
		{"response magic", "EXQ1\x00\x00", false},
		{"unknown kind", "EXR1\x02", false},
		{"truncated response", "EXR", false},
		{"truncated list", string(list[:len(list)-1]), false},
		{"trailing byte", string(list) + "\x00", false},
		{"count 2^62 in a 14-byte body", string(huge), false},
		{"non-minimal count", "EXR1\x00\x80\x00", false},
		{"uvarint overflow", "EXR1\x00" + strings.Repeat("\xff", 10) + "\x01", false},
		{"empty run", "EXR1\x00\x01" + "\x01o" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00" + "\x00" + strings.Repeat("\x00", 10), false},
		{"run longer than the list", "EXR1\x00\x01" + "\x01o" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00" + "\x02" + "\x00" + strings.Repeat("\x00", 9), false},
		{"field longer than the bytes", "EXR1\x00\x01" + "\x7fo" + strings.Repeat("\x00", 20), false},
		{"repeated run header", "EXR1\x00\x02" +
			"\x01o" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00" + "\x01" + "\x01a" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00" +
			"\x01o" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00" + "\x01" + "\x01b" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00", false},
	} {
		var err error
		if tc.req {
			_, err = decodeRequest([]byte(tc.body))
		} else {
			_, err = decodeResponse([]byte(tc.body))
		}
		if !errors.Is(err, errFrame) {
			t.Errorf("%s: err = %v, want errFrame", tc.name, err)
		}
	}
}

// TestExchangeDecodeCountAllocatesNothing: a declared count is checked
// against the bytes present before anything is allocated for it, so a
// 2^20-record claim in an 8-byte body costs a refusal, not 100 MB.
func TestExchangeDecodeCountAllocatesNothing(t *testing.T) {
	body := binary.AppendUvarint([]byte("EXR1\x00"), 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		if _, err := decodeResponse(body); !errors.Is(err, errFrame) {
			t.Fatalf("count 2^20 in %d bytes: err = %v", len(body), err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("10 refusals allocated %d bytes", n)
	}
}

func TestExchangeRequestRefusesBadTrace(t *testing.T) {
	if _, err := appendRequest(nil, exchangeRequest{Method: methodEvaluations, Trace: []byte("short")}); err == nil {
		t.Fatal("a 5-byte trace header was encoded")
	}
}
