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
// frame on a TCP_NODELAY socket leaves as one segment, not two.
func WriteFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: marshal frame: %w", err)
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("wire: frame too large (%d bytes)", len(body))
	}
	frame := make([]byte, 4, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	_, err = w.Write(append(frame, body...))
	return err
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
