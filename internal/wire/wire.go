// Package wire provides the length-prefixed JSON framing shared by the
// project's TCP protocols (the DHT transport and the peer evaluation
// exchange): a 4-byte big-endian length followed by a JSON body, with a
// hard frame-size cap against memory exhaustion. It also carries the
// connection handling both protocols share: a client Pool and a Server
// that run request/response exchanges over persistent connections.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// MaxFrame bounds inbound and outbound frames.
const MaxFrame = 4 << 20

// WriteFrame marshals v and writes one frame in a single Write, so a
// frame on a TCP_NODELAY socket leaves as one segment, not two. The body
// is json.Marshal's bytes, encoded straight behind the reserved header:
// one frame-sized allocation, not a body and then a copy.
func WriteFrame(w io.Writer, v any) error {
	var f frameBuffer
	if err := json.NewEncoder(&f).Encode(v); err != nil {
		return fmt.Errorf("wire: marshal frame: %w", err)
	}
	frame := f[:len(f)-1] // Encode ends the body with a newline Marshal omits
	body := len(frame) - 4
	if body > MaxFrame {
		return fmt.Errorf("wire: frame too large (%d bytes)", body)
	}
	binary.BigEndian.PutUint32(frame, uint32(body))
	_, err := w.Write(frame)
	return err
}

// frameBuffer collects one encoded frame behind a 4-byte header. A
// json.Encoder writes each value in one call, so the buffer is allocated
// once, at its final size.
type frameBuffer []byte

func (f *frameBuffer) Write(p []byte) (int, error) {
	if *f == nil {
		*f = make([]byte, 4, 4+len(p))
	}
	*f = append(*f, p...)
	return len(p), nil
}

// ReadFrame reads one frame and unmarshals it into v.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("wire: inbound frame too large (%d bytes)", n)
	}
	// readBounded grows the buffer as bytes actually arrive: a hostile
	// 4-byte header must not be able to demand a MaxFrame allocation
	// against a near-empty stream.
	body, err := readBounded(r, int(n))
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}
