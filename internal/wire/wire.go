// Package wire provides the length-prefixed framing shared by the
// project's TCP protocols: a 4-byte big-endian body length followed by
// the body, with a hard frame-size cap against memory exhaustion.
// WriteRawFrame and ReadRawFrame carry any body; the evaluation exchange
// (internal/peer) sends fixed binary bodies through them. WriteFrame and
// ReadFrame build on the pair with a JSON body, which the DHT transport
// uses. The package also carries the connection handling both protocols
// share: a client Pool and a Server that run request/response exchanges
// over persistent connections.
package wire

import (
	"encoding/binary"
	"encoding/json"
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

// WriteFrame marshals v as JSON and writes it as one frame. The body is
// json.Marshal's bytes, encoded straight behind the reserved header: one
// frame-sized allocation, not a body and then a copy.
func WriteFrame(w io.Writer, v any) error {
	var f frameBuffer
	if err := json.NewEncoder(&f).Encode(v); err != nil {
		return fmt.Errorf("wire: marshal frame: %w", err)
	}
	return WriteRawFrame(w, f[:len(f)-1]) // Encode ends the body with a newline Marshal omits
}

// frameBuffer collects one encoded frame behind a FrameHeader. A
// json.Encoder writes each value in one call, so the buffer is allocated
// once, at its final size.
type frameBuffer []byte

func (f *frameBuffer) Write(p []byte) (int, error) {
	if *f == nil {
		*f = make([]byte, FrameHeader, FrameHeader+len(p))
	}
	*f = append(*f, p...)
	return len(p), nil
}

// ReadFrame reads one frame and unmarshals its JSON body into v.
func ReadFrame(r io.Reader, v any) error {
	body, err := ReadRawFrame(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}
