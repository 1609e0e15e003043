package peer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/fault"
	"mdrep/internal/identity"
	"mdrep/internal/wire"
)

// The evaluation exchange's frame bodies have one fixed binary layout,
// in the style of wire's TMR1 rows and TRC1 headers. A request is
//
//	[4]  magic "EXQ1"
//	[1]  method (1 = evaluations)
//	[25] TRC1 trace context (wire.TraceContext), present only when sampled
//
// and a response is
//
//	[4]  magic "EXR1"
//	[1]  kind: 0 = evaluation list, 1 = the serving peer's error
//
// followed, for an error, by its text up to the end of the body, and for
// a list by the number of records, then runs of records until that many
// have been read. A run is the records that share an owner, a timestamp
// and a list signature, so those are written once per run:
//
//	run    = owner, timestamp, list signature, record count (≥ 1), records
//	record = file, evaluation, signature
//
// Counts and the lengths that prefix the owner, file and signature bytes
// are uvarints; timestamps (nanoseconds) and evaluations (float64 bits)
// are 8 bytes, big-endian. An empty signature or list signature reads
// back as nil. The encoding is canonical: a body the decoder accepts
// re-encodes to the same bytes, so it refuses non-minimal uvarints, empty
// runs, two adjacent runs the encoder would have merged, and trailing
// bytes. Every count and length is checked against the bytes left before
// anything is allocated for it.

var (
	requestMagic  = [4]byte{'E', 'X', 'Q', '1'}
	responseMagic = [4]byte{'E', 'X', 'R', '1'}
)

// methodEvaluations asks for the serving peer's evaluation list.
const methodEvaluations byte = 1

const (
	kindList  byte = 0
	kindError byte = 1
)

// minRecordSize is the fewest bytes a record takes: empty file and
// signature, each behind a one-byte length, and the evaluation.
const minRecordSize = 1 + 8 + 1

// errFrame reports a malformed exchange frame body; every decode failure
// wraps it.
var errFrame = errors.New("peer: malformed exchange frame")

// exchangeRequest is a decoded request.
type exchangeRequest struct {
	Method byte
	// Trace is the sender's TRC1 header, wire.EncodedTraceContextSize
	// bytes, or nil. It is carried undecoded: a corrupt header is
	// ignored where it is read, never a refused request.
	Trace []byte
}

// exchangeResponse is a decoded response: the serving peer's evaluation
// list or, when Refused, the error it sent instead.
type exchangeResponse struct {
	Refused     bool
	Error       string
	Evaluations []eval.Info
}

// appendRequest appends req's body to b.
func appendRequest(b []byte, req exchangeRequest) ([]byte, error) {
	if n := len(req.Trace); n != 0 && n != wire.EncodedTraceContextSize {
		return nil, fault.Terminal(fmt.Errorf("peer: trace header of %d bytes, want %d", n, wire.EncodedTraceContextSize))
	}
	b = append(b, requestMagic[:]...)
	b = append(b, req.Method)
	return append(b, req.Trace...), nil
}

// decodeRequest parses a request body. The trace header aliases body.
func decodeRequest(body []byte) (exchangeRequest, error) {
	const size = len(requestMagic) + 1
	if n := len(body); n != size && n != size+wire.EncodedTraceContextSize {
		return exchangeRequest{}, fmt.Errorf("%w: request of %d bytes", errFrame, n)
	}
	if [4]byte(body) != requestMagic {
		return exchangeRequest{}, fmt.Errorf("%w: bad request magic %q", errFrame, body[:4])
	}
	req := exchangeRequest{Method: body[4]}
	if len(body) > size {
		req.Trace = body[size:len(body):len(body)]
	}
	return req, nil
}

// appendResponse appends resp's body to b, growing b once.
func appendResponse(b []byte, resp *exchangeResponse) []byte {
	b = append(b, responseMagic[:]...)
	if resp.Refused {
		return append(append(b, kindError), resp.Error...)
	}
	infos := resp.Evaluations
	b = slices.Grow(b, listSize(infos))
	b = binary.AppendUvarint(append(b, kindList), uint64(len(infos)))
	for lo := 0; lo < len(infos); {
		hi := runEnd(infos, lo)
		first := &infos[lo]
		b = appendField(b, first.OwnerID)
		b = binary.BigEndian.AppendUint64(b, uint64(first.Timestamp))
		b = appendField(b, first.ListSignature)
		b = binary.AppendUvarint(b, uint64(hi-lo))
		for k := lo; k < hi; k++ {
			in := &infos[k]
			b = appendField(b, in.FileID)
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(in.Evaluation))
			b = appendField(b, in.Signature)
		}
		lo = hi
	}
	return b
}

// runEnd returns the end of the run of records that starts at lo.
func runEnd(infos []eval.Info, lo int) int {
	hi := lo + 1
	for hi < len(infos) && sameRun(&infos[lo], &infos[hi]) {
		hi++
	}
	return hi
}

// sameRun reports whether two records share a run's header.
func sameRun(a, b *eval.Info) bool {
	return a.OwnerID == b.OwnerID && a.Timestamp == b.Timestamp && bytes.Equal(a.ListSignature, b.ListSignature)
}

// listSize returns the size of a list body after its magic and kind.
func listSize(infos []eval.Info) int {
	n := uvarintSize(len(infos))
	for lo := 0; lo < len(infos); {
		hi := runEnd(infos, lo)
		first := &infos[lo]
		n += fieldSize(len(first.OwnerID)) + 8 + fieldSize(len(first.ListSignature)) + uvarintSize(hi-lo)
		for k := lo; k < hi; k++ {
			n += fieldSize(len(infos[k].FileID)) + 8 + fieldSize(len(infos[k].Signature))
		}
		lo = hi
	}
	return n
}

func appendField[T ~string | ~[]byte](b []byte, v T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(v))), v...)
}

func fieldSize(n int) int { return uvarintSize(n) + n }

func uvarintSize(n int) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], uint64(n))
}

// decodeResponse parses a response body. The records' signatures and
// list signatures alias body, full-slice capped so an append to one
// cannot reach the next; the records of one run share their list
// signature, as Peer.SignedEvaluations' records do.
func decodeResponse(body []byte) (exchangeResponse, error) {
	if len(body) < len(responseMagic)+1 {
		return exchangeResponse{}, fmt.Errorf("%w: response of %d bytes", errFrame, len(body))
	}
	if [4]byte(body) != responseMagic {
		return exchangeResponse{}, fmt.Errorf("%w: bad response magic %q", errFrame, body[:4])
	}
	switch kind, rest := body[4], body[5:]; kind {
	case kindError:
		return exchangeResponse{Refused: true, Error: string(rest)}, nil
	case kindList:
		infos, err := decodeList(rest)
		if err != nil {
			return exchangeResponse{}, err
		}
		return exchangeResponse{Evaluations: infos}, nil
	default:
		return exchangeResponse{}, fmt.Errorf("%w: unknown response kind %d", errFrame, kind)
	}
}

// decodeList parses a list body after its magic and kind.
func decodeList(buf []byte) ([]eval.Info, error) {
	r := frameReader{buf: buf}
	total := r.count(minRecordSize)
	infos := make([]eval.Info, 0, total)
	for r.err == nil && len(infos) < total {
		run := eval.Info{
			OwnerID:       identity.PeerID(r.field()),
			Timestamp:     time.Duration(r.fixed64()),
			ListSignature: r.bytes(),
		}
		n := r.count(minRecordSize)
		switch {
		case r.err != nil: // the header is cut short; the loop ends
		case n == 0 || n > total-len(infos):
			r.fail("run of %d records with %d of %d left", n, total-len(infos), total)
		case len(infos) > 0 && sameRun(&infos[len(infos)-1], &run):
			r.fail("run %q repeats the one before it", run.OwnerID)
		}
		for k := 0; k < n && r.err == nil; k++ {
			in := run
			in.FileID = eval.FileID(r.field())
			in.Evaluation = math.Float64frombits(r.fixed64())
			in.Signature = r.bytes()
			infos = append(infos, in)
		}
	}
	if r.err == nil && len(r.buf) > 0 {
		r.fail("%d trailing bytes", len(r.buf))
	}
	if r.err != nil {
		return nil, r.err
	}
	return infos, nil
}

// frameReader reads the fields of a frame body from the front of buf.
// The first failure sticks: every later read returns a zero value.
type frameReader struct {
	buf []byte
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errFrame, fmt.Sprintf(format, args...))
	}
}

// uvarint reads a minimally encoded uvarint.
func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.buf)
	switch {
	case k == 0:
		r.fail("truncated uvarint")
		return 0
	case k < 0:
		r.fail("uvarint overflows 64 bits")
		return 0
	case k > 1 && r.buf[k-1] == 0:
		r.fail("non-minimal uvarint")
		return 0
	}
	r.buf = r.buf[k:]
	return v
}

// count reads a count of items that take at least minSize bytes each,
// refusing one the bytes left cannot hold.
func (r *frameReader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.buf)/minSize) {
		r.fail("count %d in %d bytes", n, len(r.buf))
		return 0
	}
	return int(n)
}

// field reads a length-prefixed byte string, aliasing buf.
func (r *frameReader) field() []byte {
	n := r.uvarint()
	if n > uint64(len(r.buf)) {
		r.fail("field of %d bytes with %d left", n, len(r.buf))
		return nil
	}
	v := r.buf[:n:n]
	r.buf = r.buf[n:]
	return v
}

// bytes reads a field as bytes, nil when empty.
func (r *frameReader) bytes() []byte {
	if v := r.field(); len(v) > 0 {
		return v
	}
	return nil
}

// fixed64 reads an 8-byte big-endian word.
func (r *frameReader) fixed64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail("truncated 8-byte field")
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}
