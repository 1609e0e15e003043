package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// frameOf returns body behind a FrameHeader reserved for WriteRawFrame.
func frameOf(body []byte) []byte {
	return append(make([]byte, FrameHeader), body...)
}

// TestRoundTrip: an empty body and one of every byte value pass through
// WriteRawFrame and ReadRawFrame unchanged.
func TestRoundTrip(t *testing.T) {
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	for _, body := range [][]byte{{}, every} {
		var buf bytes.Buffer
		if err := WriteRawFrame(&buf, frameOf(body)); err != nil {
			t.Fatal(err)
		}
		got, err := ReadRawFrame(&buf)
		if err != nil || !bytes.Equal(got, body) || buf.Len() != 0 {
			t.Fatalf("round trip of %d bytes: %d bytes, %v, %d left", len(body), len(got), err, buf.Len())
		}
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteRawFrame(&buf, frameOf(bytes.Repeat([]byte{byte(i)}, i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		body, err := ReadRawFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, bytes.Repeat([]byte{byte(i)}, i)) {
			t.Fatalf("frame %d: %q", i, body)
		}
	}
}

// TestWriteFrameRejectsOversize: a body of MaxFrame bytes is written,
// one byte more is refused.
func TestWriteFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRawFrame(&buf, make([]byte, FrameHeader+MaxFrame)); err != nil {
		t.Fatalf("MaxFrame body refused: %v", err)
	}
	if err := WriteRawFrame(&buf, make([]byte, FrameHeader+MaxFrame+1)); err == nil {
		t.Fatal("oversize frame written")
	}
	if buf.Len() != FrameHeader+MaxFrame {
		t.Fatalf("wrote %d bytes", buf.Len())
	}
}

func TestReadFrameRejectsOversizeHeader(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	buf.Write(hdr[:])
	if _, err := ReadRawFrame(&buf); err == nil {
		t.Fatal("oversize header accepted")
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("{}") // only 2 of 100 bytes
	if _, err := ReadRawFrame(&buf); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated body: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestRawFrameRoundTrip: WriteRawFrame fills the reserved header and
// writes the frame in one Write, again the same bytes on a second call,
// and ReadRawFrame returns the body.
func TestRawFrameRoundTrip(t *testing.T) {
	frame := append(make([]byte, FrameHeader), "body\x00"...)
	var w countingWriter
	for i := 0; i < 2; i++ {
		if err := WriteRawFrame(&w, frame); err != nil {
			t.Fatal(err)
		}
	}
	if w.writes != 2 || w.String() != strings.Repeat("\x00\x00\x00\x05body\x00", 2) {
		t.Fatalf("%d writes of %q", w.writes, w.String())
	}
	for i := 0; i < 2; i++ {
		body, err := ReadRawFrame(&w)
		if err != nil || string(body) != "body\x00" {
			t.Fatalf("ReadRawFrame = %q, %v", body, err)
		}
	}
}

func TestWriteRawFrameRefusesBadFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRawFrame(&buf, []byte{0, 0}); err == nil {
		t.Fatal("frame shorter than its header written")
	}
	if err := WriteRawFrame(&buf, make([]byte, FrameHeader+MaxFrame+1)); err == nil {
		t.Fatal("oversize frame written")
	}
	if buf.Len() != 0 {
		t.Fatalf("refused frames wrote %d bytes", buf.Len())
	}
}

// TestFrameReaderReadsWhatAppendWrites: fields written with the append
// helpers read back in order, FieldSize and UvarintSize match the bytes
// written, and an empty field reads back as nil from Bytes.
func TestFrameReaderReadsWhatAppendWrites(t *testing.T) {
	body := AppendField(nil, "<& ")
	body = AppendField(body, []byte{})
	body = binary.AppendUvarint(body, 1<<40)
	body = binary.BigEndian.AppendUint64(body, 0x0102030405060708)
	body = append(body, 1, 0, 7)
	if want := FieldSize(len("<& ")) + FieldSize(0) + UvarintSize(1<<40) + 8 + 3; len(body) != want {
		t.Fatalf("%d bytes written, sizes say %d", len(body), want)
	}
	r := NewFrameReader(body)
	if got := string(r.Field()); got != "<& " {
		t.Fatalf("Field = %q", got)
	}
	if got := r.Bytes(); got != nil {
		t.Fatalf("empty Bytes = %#v, want nil", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Fixed64(); got != 0x0102030405060708 {
		t.Fatalf("Fixed64 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool misread")
	}
	if r.Len() != 1 || r.Finish() == nil {
		t.Fatalf("a trailing byte: Len %d, Finish %v", r.Len(), r.Err())
	}
	r = NewFrameReader([]byte{7, 8})
	if got := r.Rest(); !bytes.Equal(got, []byte{7, 8}) || cap(got) != 2 || r.Finish() != nil {
		t.Fatalf("Rest = %v (cap %d), Finish %v", got, cap(got), r.Err())
	}
}

// TestFrameReaderRefuses: each malformed input fails with ErrMalformed,
// and the first failure sticks, so later reads return zero values.
func TestFrameReaderRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		body string
		read func(r *FrameReader)
	}{
		{"truncated byte", "", func(r *FrameReader) { r.Byte() }},
		{"flag byte 2", "\x02", func(r *FrameReader) { r.Bool() }},
		{"truncated uvarint", "\x80", func(r *FrameReader) { r.Uvarint() }},
		{"non-minimal uvarint", "\x81\x00", func(r *FrameReader) { r.Uvarint() }},
		{"uvarint overflow", strings.Repeat("\xff", 10) + "\x01", func(r *FrameReader) { r.Uvarint() }},
		{"count beyond the bytes", "\x03" + "xxxxx", func(r *FrameReader) { r.Count(2) }},
		{"field beyond the bytes", "\x04abc", func(r *FrameReader) { r.Field() }},
		{"truncated fixed64", "1234567", func(r *FrameReader) { r.Fixed64() }},
	} {
		r := NewFrameReader([]byte(tc.body))
		tc.read(&r)
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", tc.name, r.Err())
			continue
		}
		first := r.Err()
		if r.Byte() != 0 || r.Uvarint() != 0 || r.Field() != nil || r.Fixed64() != 0 || r.Rest() != nil || r.Finish() != first {
			t.Errorf("%s: a read after the failure returned a value or replaced the error", tc.name)
		}
	}
}
