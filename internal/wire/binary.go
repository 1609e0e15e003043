package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary records are the framing of the durable-state subsystem
// (internal/journal): unlike the frames of the TCP protocols, a
// record that is read back must be *provably* the record that was
// written, because a crash can tear a write anywhere. Each record is
//
//	[4-byte big-endian payload length][4-byte CRC32-C of payload][payload]
//
// The checksum uses the Castagnoli polynomial (hardware-accelerated on
// amd64/arm64). A reader distinguishes three outcomes a write-ahead log
// cares about: a clean end of stream (io.EOF), a torn record
// (io.ErrUnexpectedEOF — the stream ends mid-header or mid-payload), and
// a corrupt record (ErrChecksum / ErrRecordTooLarge — the bytes are all
// there but wrong).

// MaxRecord bounds a single binary record's payload. Snapshots of large
// engines are the biggest records written, so this is far above MaxFrame.
const MaxRecord = 64 << 20

// crcTable is the Castagnoli table shared by writer and reader.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum reports a record whose payload does not match its CRC.
var ErrChecksum = errors.New("wire: record checksum mismatch")

// ErrRecordTooLarge reports a declared payload length above MaxRecord —
// on a log replay this means the length field itself is garbage.
var ErrRecordTooLarge = errors.New("wire: record too large")

// recordHeaderSize is the fixed prefix: length + CRC.
const recordHeaderSize = 8

// RecordSize returns the encoded size of a record with a payload of n
// bytes.
func RecordSize(n int) int { return recordHeaderSize + n }

// WriteRecord writes one checksummed binary record.
func WriteRecord(w io.Writer, payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("%w (%d bytes)", ErrRecordTooLarge, len(payload))
	}
	var hdr [recordHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadRecord reads one binary record and returns its payload. Errors:
//
//   - io.EOF: the stream ended cleanly before any byte of this record;
//   - io.ErrUnexpectedEOF: the stream ended inside the record (a torn
//     write — the caller may truncate the log here);
//   - ErrRecordTooLarge, ErrChecksum: the record is corrupt.
//
// The payload is read in bounded chunks so a hostile length prefix on a
// short stream cannot force a MaxRecord-sized allocation up front.
func ReadRecord(r io.Reader) ([]byte, error) {
	var hdr [recordHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			// Distinguish "no record at all" from "torn header".
			if err == io.EOF {
				return nil, io.EOF
			}
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxRecord {
		return nil, fmt.Errorf("%w (declared %d bytes)", ErrRecordTooLarge, n)
	}
	payload, err := readBounded(r, int(n))
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, ErrChecksum
	}
	return payload, nil
}

// readBounded reads exactly n bytes, growing the buffer as data actually
// arrives instead of trusting the declared length. An earlier decoder
// allocated n bytes before reading — an 8-byte hostile header could then
// demand a MaxRecord allocation against a near-empty stream.
func readBounded(r io.Reader, n int) ([]byte, error) {
	const chunk = 64 << 10
	if n <= chunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
		return buf, nil
	}
	var buf bytes.Buffer
	buf.Grow(chunk)
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}
