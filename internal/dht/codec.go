package dht

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/fault"
	"mdrep/internal/identity"
	"mdrep/internal/wire"
)

// The TCP transport's frame bodies have one fixed binary layout, in the
// style of the evaluation exchange's (internal/peer). A request is
//
//	[4]  magic "DHQ1"
//	[1]  method: 1 find_successor, 2 successors, 3 predecessor,
//	     4 notify, 5 ping, 6 store, 7 retrieve
//	     then that method's fields:
//	       find_successor, retrieve: [8] ID
//	       notify: node
//	       store: [1] replicate (0 or 1), record count, records
//	       any other method: none
//	[25] TRC1 trace context (wire.TraceContext), present only when sampled
//
// and a response is
//
//	[4]  magic "DHR1"
//	[1]  the method it answers, or 0 for the serving node's error
//	     then the answer's fields:
//	       error: its text up to the end of the body
//	       find_successor: node
//	       successors: node count, nodes
//	       predecessor: [1] has one (0 or 1), then the node if it has
//	       retrieve: record count, records
//	       notify, ping, store: none
//
// where
//
//	node   = [8] ID, address
//	record = [8] key, file, owner, [8] evaluation, [8] timestamp, signature
//
// IDs, keys, timestamps (nanoseconds) and evaluations (float64 bits) are
// 8 bytes, big-endian; counts, and the lengths that prefix the address,
// file, owner and signature bytes, are uvarints. An empty signature
// reads back as nil. A record carries no list signature: Storage.Put
// drops it, so a stored record and a retrieve answer are the same
// without it. The encoding is canonical: a body the decoder accepts
// re-encodes to the same bytes, so it refuses non-minimal uvarints, flag
// bytes other than 0 and 1, and trailing bytes. Every count and length is
// checked against the bytes left before anything is allocated for it.

var (
	requestMagic  = [4]byte{'D', 'H', 'Q', '1'}
	responseMagic = [4]byte{'D', 'H', 'R', '1'}
)

// method names an RPC on the wire.
type method byte

const (
	// methodError marks a response that carries the serving node's
	// error instead of an answer.
	methodError method = iota
	methodFindSuccessor
	methodSuccessors
	methodPredecessor
	methodNotify
	methodPing
	methodStore
	methodRetrieve
)

var methodNames = [...]string{
	methodFindSuccessor: "find_successor",
	methodSuccessors:    "successors",
	methodPredecessor:   "predecessor",
	methodNotify:        "notify",
	methodPing:          "ping",
	methodStore:         "store",
	methodRetrieve:      "retrieve",
}

func (m method) String() string {
	if int(m) < len(methodNames) && methodNames[m] != "" {
		return methodNames[m]
	}
	return "unknown"
}

// Minimum encoded sizes: a node with an empty address, and a record with
// empty file, owner and signature, each field behind a one-byte length.
const (
	minNodeSize   = 8 + 1
	minRecordSize = 8 + 1 + 1 + 8 + 8 + 1
)

// wireRequest is a decoded request; only its method's fields are set.
type wireRequest struct {
	Method    method
	ID        ID             // find_successor's target, retrieve's key
	Node      NodeRef        // notify's candidate
	Records   []StoredRecord // store
	Replicate bool           // store
	// Trace is the sender's TRC1 header, wire.EncodedTraceContextSize
	// bytes, or nil. It is carried undecoded: a corrupt header is
	// ignored where it is read, never a refused request.
	Trace []byte
}

// wireResponse is a decoded response: the answer to Method or, when
// Method is methodError, the serving node's error text.
type wireResponse struct {
	Method  method
	Error   string
	Node    NodeRef
	HasNode bool
	Nodes   []NodeRef
	Records []StoredRecord
}

// requestFrame returns req as a frame for wire.WriteRawFrame, in one
// allocation of its final size.
func requestFrame(req *wireRequest) ([]byte, error) {
	return appendRequest(make([]byte, wire.FrameHeader, wire.FrameHeader+requestSize(req)), req)
}

// responseFrame returns resp as a frame for wire.WriteRawFrame, in one
// allocation of its final size.
func responseFrame(resp *wireResponse) []byte {
	return appendResponse(make([]byte, wire.FrameHeader, wire.FrameHeader+responseSize(resp)), resp)
}

// requestSize returns the size of req's body.
func requestSize(req *wireRequest) int {
	n := len(requestMagic) + 1 + len(req.Trace)
	switch req.Method {
	case methodFindSuccessor, methodRetrieve:
		n += 8
	case methodNotify:
		n += nodeSize(req.Node)
	case methodStore:
		n += 1 + recordsSize(req.Records)
	}
	return n
}

// appendRequest appends req's body to b.
func appendRequest(b []byte, req *wireRequest) ([]byte, error) {
	if n := len(req.Trace); n != 0 && n != wire.EncodedTraceContextSize {
		return nil, fault.Terminal(fmt.Errorf("dht: trace header of %d bytes, want %d", n, wire.EncodedTraceContextSize))
	}
	b = append(append(b, requestMagic[:]...), byte(req.Method))
	switch req.Method {
	case methodFindSuccessor, methodRetrieve:
		b = binary.BigEndian.AppendUint64(b, uint64(req.ID))
	case methodNotify:
		b = appendNode(b, req.Node)
	case methodStore:
		b = appendRecords(append(b, flag(req.Replicate)), req.Records)
	}
	return append(b, req.Trace...), nil
}

// decodeRequest parses a request body. Its records own their bytes, as
// Storage keeps them; the trace header aliases body.
func decodeRequest(body []byte) (wireRequest, error) {
	r := openBody(body, requestMagic)
	req := wireRequest{Method: method(r.Byte())}
	switch req.Method {
	case methodFindSuccessor, methodRetrieve:
		req.ID = ID(r.Fixed64())
	case methodNotify:
		req.Node = readNode(&r)
	case methodStore:
		req.Replicate = r.Bool()
		req.Records = readRecords(&r)
	}
	if r.Len() == wire.EncodedTraceContextSize {
		req.Trace = r.Rest()
	}
	if err := r.Finish(); err != nil {
		return wireRequest{}, err
	}
	return req, nil
}

// responseSize returns the size of resp's body.
func responseSize(resp *wireResponse) int {
	n := len(responseMagic) + 1
	switch resp.Method {
	case methodError:
		n += len(resp.Error)
	case methodFindSuccessor:
		n += nodeSize(resp.Node)
	case methodSuccessors:
		n += wire.UvarintSize(len(resp.Nodes))
		for _, node := range resp.Nodes {
			n += nodeSize(node)
		}
	case methodPredecessor:
		n++
		if resp.HasNode {
			n += nodeSize(resp.Node)
		}
	case methodRetrieve:
		n += recordsSize(resp.Records)
	}
	return n
}

// appendResponse appends resp's body to b.
func appendResponse(b []byte, resp *wireResponse) []byte {
	b = append(append(b, responseMagic[:]...), byte(resp.Method))
	switch resp.Method {
	case methodError:
		b = append(b, resp.Error...)
	case methodFindSuccessor:
		b = appendNode(b, resp.Node)
	case methodSuccessors:
		b = binary.AppendUvarint(b, uint64(len(resp.Nodes)))
		for _, node := range resp.Nodes {
			b = appendNode(b, node)
		}
	case methodPredecessor:
		b = append(b, flag(resp.HasNode))
		if resp.HasNode {
			b = appendNode(b, resp.Node)
		}
	case methodRetrieve:
		b = appendRecords(b, resp.Records)
	}
	return b
}

// decodeResponse parses a response body. Its records own their bytes.
func decodeResponse(body []byte) (wireResponse, error) {
	r := openBody(body, responseMagic)
	resp := wireResponse{Method: method(r.Byte())}
	switch resp.Method {
	case methodError:
		resp.Error = string(r.Rest())
	case methodFindSuccessor:
		resp.Node = readNode(&r)
	case methodSuccessors:
		if n := r.Count(minNodeSize); n > 0 {
			resp.Nodes = make([]NodeRef, n)
			for i := range resp.Nodes {
				resp.Nodes[i] = readNode(&r)
			}
		}
	case methodPredecessor:
		if resp.HasNode = r.Bool(); resp.HasNode {
			resp.Node = readNode(&r)
		}
	case methodRetrieve:
		resp.Records = readRecords(&r)
	case methodNotify, methodPing, methodStore:
	default:
		r.Fail("answer to unknown method %d", resp.Method)
	}
	if err := r.Finish(); err != nil {
		return wireResponse{}, err
	}
	return resp, nil
}

// openBody checks body's magic and returns a reader over the rest.
func openBody(body []byte, magic [4]byte) wire.FrameReader {
	if len(body) < len(magic) || [4]byte(body) != magic {
		r := wire.NewFrameReader(nil)
		r.Fail("bad magic in a body of %d bytes", len(body))
		return r
	}
	return wire.NewFrameReader(body[len(magic):])
}

func flag(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func nodeSize(node NodeRef) int { return 8 + wire.FieldSize(len(node.Addr)) }

func appendNode(b []byte, node NodeRef) []byte {
	return wire.AppendField(binary.BigEndian.AppendUint64(b, uint64(node.ID)), node.Addr)
}

func readNode(r *wire.FrameReader) NodeRef {
	id := ID(r.Fixed64())
	return NodeRef{ID: id, Addr: string(r.Field())}
}

func recordsSize(recs []StoredRecord) int {
	n := wire.UvarintSize(len(recs))
	for i := range recs {
		in := &recs[i].Info
		n += 8 + wire.FieldSize(len(in.FileID)) + wire.FieldSize(len(in.OwnerID)) + 16 + wire.FieldSize(len(in.Signature))
	}
	return n
}

func appendRecords(b []byte, recs []StoredRecord) []byte {
	b = binary.AppendUvarint(b, uint64(len(recs)))
	for i := range recs {
		rec := &recs[i]
		b = binary.BigEndian.AppendUint64(b, uint64(rec.Key))
		b = wire.AppendField(b, rec.Info.FileID)
		b = wire.AppendField(b, rec.Info.OwnerID)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(rec.Info.Evaluation))
		b = binary.BigEndian.AppendUint64(b, uint64(rec.Info.Timestamp))
		b = wire.AppendField(b, rec.Info.Signature)
	}
	return b
}

// readRecords reads a record count and the records. Every field is a
// copy: a stored record must not keep its whole frame alive.
func readRecords(r *wire.FrameReader) []StoredRecord {
	n := r.Count(minRecordSize)
	if n == 0 {
		return nil
	}
	recs := make([]StoredRecord, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		rec := &recs[i]
		rec.Key = ID(r.Fixed64())
		rec.Info.FileID = eval.FileID(r.Field())
		rec.Info.OwnerID = identity.PeerID(r.Field())
		rec.Info.Evaluation = math.Float64frombits(r.Fixed64())
		rec.Info.Timestamp = time.Duration(r.Fixed64())
		rec.Info.Signature = bytes.Clone(r.Bytes())
	}
	return recs
}
