// Package wire provides the length-prefixed framing shared by the
// project's TCP protocols: a 4-byte big-endian body length followed by
// the body, with a hard frame-size cap against memory exhaustion.
// WriteRawFrame and ReadRawFrame carry the bodies, which each protocol
// gives one fixed binary layout: the DHT's RPCs (internal/dht) and the
// evaluation exchange (internal/peer). Both decode their bodies with a
// FrameReader, which checks every count and length against the bytes
// left before anything is allocated for it, and encode fields with
// AppendField. The package also carries the connection handling both
// protocols share: a client Pool and a Server that run request/response
// exchanges over persistent connections.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds inbound and outbound frame bodies.
const MaxFrame = 4 << 20

// FrameHeader is the size of a frame's length prefix. A caller that
// builds a raw frame reserves it at the front of its buffer.
const FrameHeader = 4

// WriteRawFrame writes frame, FrameHeader reserved bytes followed by a
// body, in a single Write, after filling the reserved bytes with the
// body's length: a frame on a TCP_NODELAY socket leaves as one segment,
// not two, and the body is never copied. Writing the same frame again
// writes the same bytes.
func WriteRawFrame(w io.Writer, frame []byte) error {
	if len(frame) < FrameHeader {
		return fmt.Errorf("wire: frame of %d bytes has no room for its header", len(frame))
	}
	body := len(frame) - FrameHeader
	if body > MaxFrame {
		return fmt.Errorf("wire: frame too large (%d bytes)", body)
	}
	binary.BigEndian.PutUint32(frame, uint32(body))
	_, err := w.Write(frame)
	return err
}

// ReadRawFrame reads one frame and returns its body, a new slice the
// caller owns.
func ReadRawFrame(r io.Reader) ([]byte, error) {
	var hdr [FrameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: inbound frame too large (%d bytes)", n)
	}
	// readBounded grows the buffer as bytes actually arrive: a hostile
	// 4-byte header must not be able to demand a MaxFrame allocation
	// against a near-empty stream.
	return readBounded(r, int(n))
}

// ErrMalformed reports a frame body that does not decode; every
// FrameReader failure wraps it.
var ErrMalformed = errors.New("wire: malformed frame body")

// AppendField appends v behind its length as a uvarint, the layout
// FrameReader.Field reads.
func AppendField[T ~string | ~[]byte](b []byte, v T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(v))), v...)
}

// FieldSize returns the encoded size of a field of n bytes.
func FieldSize(n int) int { return UvarintSize(n) + n }

// UvarintSize returns the encoded size of n as a uvarint.
func UvarintSize(n int) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], uint64(n))
}

// FrameReader reads the fields of a frame body from its front. The first
// failure sticks: every later read returns a zero value, and Err reports
// the failure. The reader accepts only canonical encodings, so a body a
// codec accepts re-encodes to the same bytes.
type FrameReader struct {
	buf []byte
	err error
}

// NewFrameReader returns a reader over body.
func NewFrameReader(body []byte) FrameReader { return FrameReader{buf: body} }

// Err returns the first failure, wrapping ErrMalformed, or nil.
func (r *FrameReader) Err() error { return r.err }

// Len returns the number of bytes left.
func (r *FrameReader) Len() int { return len(r.buf) }

// Fail records a failure unless one is already recorded.
func (r *FrameReader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// Finish refuses trailing bytes and returns Err.
func (r *FrameReader) Finish() error {
	if r.err == nil && len(r.buf) > 0 {
		r.Fail("%d trailing bytes", len(r.buf))
	}
	return r.err
}

// Byte reads one byte.
func (r *FrameReader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.Fail("truncated byte")
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

// Bool reads a byte that must be 0 or 1.
func (r *FrameReader) Bool() bool {
	switch v := r.Byte(); v {
	case 0, 1:
		return v == 1
	default:
		r.Fail("flag byte %d", v)
		return false
	}
}

// Uvarint reads a minimally encoded uvarint.
func (r *FrameReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.buf)
	switch {
	case k == 0:
		r.Fail("truncated uvarint")
		return 0
	case k < 0:
		r.Fail("uvarint overflows 64 bits")
		return 0
	case k > 1 && r.buf[k-1] == 0:
		r.Fail("non-minimal uvarint")
		return 0
	}
	r.buf = r.buf[k:]
	return v
}

// Count reads a count of items that take at least minSize bytes each,
// refusing one the bytes left cannot hold.
func (r *FrameReader) Count(minSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.buf)/minSize) {
		r.Fail("count %d in %d bytes", n, len(r.buf))
		return 0
	}
	return int(n)
}

// Field reads a length-prefixed byte string, aliasing the body.
func (r *FrameReader) Field() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.Fail("field of %d bytes with %d left", n, len(r.buf))
		return nil
	}
	v := r.buf[:n:n]
	r.buf = r.buf[n:]
	return v
}

// Bytes reads a field as bytes, nil when empty, aliasing the body.
func (r *FrameReader) Bytes() []byte {
	if v := r.Field(); len(v) > 0 {
		return v
	}
	return nil
}

// Fixed64 reads an 8-byte big-endian word.
func (r *FrameReader) Fixed64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.Fail("truncated 8-byte field")
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// Rest reads every byte left, aliasing the body.
func (r *FrameReader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	v := r.buf[:len(r.buf):len(r.buf)]
	r.buf = r.buf[len(r.buf):]
	return v
}
