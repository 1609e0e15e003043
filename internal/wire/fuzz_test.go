package wire

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadRecord feeds hostile bytes to the binary record decoder: it
// must never panic, and whatever it accepts must round-trip. This fuzz
// target surfaced the decoder's original allocation bound — a hostile
// 8-byte header could demand a MaxRecord-sized buffer against an empty
// stream; ReadRecord now grows the buffer only as payload bytes actually
// arrive (readBounded).
func FuzzReadRecord(f *testing.F) {
	seed := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteRecord(&buf, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add(seed(nil))
	f.Add(seed([]byte("hello")))
	f.Add(seed(bytes.Repeat([]byte{0x7F}, 1000)))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 0, 'a', 'b'})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			payload, err := ReadRecord(r)
			if err != nil {
				break
			}
			// Anything the decoder accepts must re-encode to bytes the
			// decoder accepts again with the same payload.
			var buf bytes.Buffer
			if err := WriteRecord(&buf, payload); err != nil {
				t.Fatalf("re-encode accepted payload: %v", err)
			}
			back, err := ReadRecord(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if !bytes.Equal(back, payload) {
				t.Fatal("payload changed across round-trip")
			}
		}
	})
}

// FuzzRecordRoundTrip checks write→read over arbitrary payloads.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("payload"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > MaxRecord {
			t.Skip()
		}
		var buf bytes.Buffer
		if err := WriteRecord(&buf, payload); err != nil {
			t.Fatal(err)
		}
		got, err := ReadRecord(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload changed across round-trip")
		}
		if _, err := ReadRecord(bytes.NewReader(buf.Bytes()[:buf.Len()-1])); err != io.ErrUnexpectedEOF {
			t.Fatalf("truncated read: got %v", err)
		}
	})
}

// FuzzReadFrame feeds hostile bytes to the frame reader used by the TCP
// protocols: it must error or succeed, never panic, and a body it
// accepts must frame again to the bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x05EXQ1\x01"))
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := ReadRawFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteRawFrame(&buf, append(make([]byte, FrameHeader), body...)); err != nil {
			t.Fatalf("re-frame accepted body: %v", err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("accepted frame re-frames to %q", buf.Bytes())
		}
	})
}

// FuzzTMRowCodec feeds hostile bytes to the TM-row decoder: it must never
// panic, and anything it accepts must be a semantically valid row that
// re-encodes to the exact input bytes (the encoding is canonical).
func FuzzTMRowCodec(f *testing.F) {
	seed := func(r *TMRow) []byte {
		raw, err := EncodeTMRow(r)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	f.Add([]byte{})
	f.Add(seed(&TMRow{User: 0, N: 1, Epoch: 7}))
	f.Add(seed(&TMRow{User: 1, N: 4, Epoch: 9, Cols: []int32{0, 2, 3}, Vals: []float64{0.5, 0.25, 0.25}}))
	f.Add([]byte("TMR1 but far too short"))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		row, err := DecodeTMRow(data)
		if err != nil {
			return
		}
		raw, err := EncodeTMRow(row)
		if err != nil {
			t.Fatalf("re-encode accepted row: %v", err)
		}
		if !bytes.Equal(raw, data) {
			t.Fatal("accepted bytes are not the canonical encoding")
		}
	})
}

// FuzzTraceContext feeds hostile bytes to the trace-context decoder: it
// must never panic, and anything it accepts must re-encode to the exact
// input bytes (the encoding is canonical).
func FuzzTraceContext(f *testing.F) {
	seed := func(tc TraceContext) []byte {
		raw, err := tc.Encode()
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	f.Add([]byte{})
	f.Add(seed(TraceContext{Trace: 1, Span: 1}))
	f.Add(seed(TraceContext{Trace: 0xdeadbeef, Span: 0xcafe, Sampled: true}))
	f.Add([]byte("TRC1 but far too short"))
	f.Add(make([]byte, EncodedTraceContextSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		tc, err := DecodeTraceContext(data)
		if err != nil {
			return
		}
		raw, err := tc.Encode()
		if err != nil {
			t.Fatalf("re-encode accepted context: %v", err)
		}
		if !bytes.Equal(raw, data) {
			t.Fatal("accepted bytes are not the canonical encoding")
		}
	})
}
