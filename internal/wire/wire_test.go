package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"
)

type payload struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := payload{Name: "x", Value: 0.5}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteFrame(&buf, payload{Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		var out payload
		if err := ReadFrame(&buf, &out); err != nil {
			t.Fatal(err)
		}
		if out.Value != float64(i) {
			t.Fatalf("frame %d: %v", i, out.Value)
		}
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	big := payload{Name: strings.Repeat("a", MaxFrame)}
	if err := WriteFrame(&buf, big); err == nil {
		t.Fatal("oversize frame written")
	}
}

func TestReadFrameRejectsOversizeHeader(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	buf.Write(hdr[:])
	var out payload
	if err := ReadFrame(&buf, &out); err == nil {
		t.Fatal("oversize header accepted")
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("{}") // only 2 of 100 bytes
	var out payload
	if err := ReadFrame(&buf, &out); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestReadFrameGarbageJSON(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("{not json")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	var out payload
	if err := ReadFrame(&buf, &out); err == nil {
		t.Fatal("garbage JSON accepted")
	}
}

func TestWriteFrameUnmarshalableValue(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make(chan int)); err == nil {
		t.Fatal("unmarshalable value accepted")
	}
}

// TestWriteFrameMatchesMarshal pins WriteFrame's bytes to a 4-byte
// big-endian length followed by json.Marshal(v), for values whose strings
// JSON escapes.
func TestWriteFrameMatchesMarshal(t *testing.T) {
	for _, v := range []any{
		payload{Name: "x", Value: 0.5},
		payload{Name: "<a href=\"?\">&amp;</a>\u2028\u2029\t\x00é", Value: -1e-300},
		[]payload{{Name: "one"}, {Name: strings.Repeat("&", 1000)}},
		map[string]any{"nested": []any{nil, true, "<>"}},
		nil,
	} {
		checkFrameBytes(t, v)
	}
}

func checkFrameBytes(t *testing.T, v any) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	want := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	want = append(want, body...)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteFrame(%T) = %q, want %q", v, buf.Bytes(), want)
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
