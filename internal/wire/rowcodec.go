package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// TM-row records are the payload the decentralized reputation walk
// (internal/walk) publishes to the DHT: one user's normalized trust-matrix
// row, self-describing and checksummed so a replica-fetched copy is
// provably the row that was published. It is a fixed binary layout —
// rows are re-decoded on every cache miss of every walk, and the encoding
// must be canonical so two publications of the same snapshot are
// byte-identical:
//
//	[4]  magic "TMR1"
//	[4]  user  (uint32, the row index)
//	[4]  n     (uint32, matrix dimension)
//	[8]  epoch (uint64, snapshot epoch; republication supersedes by epoch)
//	[4]  count (uint32, number of stored entries)
//	[4k] cols  (uint32 each, strictly ascending, < n)
//	[8k] vals  (float64 bits, finite, in [0,1])
//	[4]  CRC32-C over everything above
//
// An empty row (count = 0) is a valid record: publishers emit one for
// every user, dangling rows included, so a fetcher can distinguish "this
// user trusts nobody" from "the record was lost".

// MaxTMRowEntries bounds a single row record; a decoded count above it is
// rejected before any allocation proportional to it happens.
const MaxTMRowEntries = 1 << 20

// tmRowMagic identifies and versions the encoding.
var tmRowMagic = [4]byte{'T', 'M', 'R', '1'}

// tmRowHeaderSize is the fixed prefix: magic + user + n + epoch + count.
const tmRowHeaderSize = 24

// tmRowCRCSize is the trailing checksum.
const tmRowCRCSize = 4

// ErrRowCodec reports a structurally invalid TM-row record; every decode
// failure wraps it.
var ErrRowCodec = errors.New("wire: invalid TM row record")

// TMRow is one user's normalized trust-matrix row in decoded form. Cols
// are ascending column indices, Vals the matching transition weights.
type TMRow struct {
	User  int32
	N     int32
	Epoch uint64
	Cols  []int32
	Vals  []float64
}

// validate checks the semantic invariants shared by encode and decode, so
// a publisher cannot emit a record a fetcher would reject.
func (r *TMRow) validate() error {
	if r.N <= 0 {
		return fmt.Errorf("%w: dimension %d", ErrRowCodec, r.N)
	}
	if r.User < 0 || r.User >= r.N {
		return fmt.Errorf("%w: user %d outside [0, %d)", ErrRowCodec, r.User, r.N)
	}
	if len(r.Cols) != len(r.Vals) {
		return fmt.Errorf("%w: %d cols vs %d vals", ErrRowCodec, len(r.Cols), len(r.Vals))
	}
	if len(r.Cols) > MaxTMRowEntries {
		return fmt.Errorf("%w: %d entries above cap %d", ErrRowCodec, len(r.Cols), MaxTMRowEntries)
	}
	prev := int32(-1)
	for k, j := range r.Cols {
		if j <= prev || j >= r.N {
			return fmt.Errorf("%w: column %d at position %d (prev %d, n %d)", ErrRowCodec, j, k, prev, r.N)
		}
		prev = j
		v := r.Vals[k]
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
			return fmt.Errorf("%w: value %v at column %d outside [0,1]", ErrRowCodec, v, j)
		}
	}
	return nil
}

// EncodedRowSize returns the encoded size of a row with k entries.
func EncodedRowSize(k int) int { return tmRowHeaderSize + 12*k + tmRowCRCSize }

// EncodeTMRow renders the row in its canonical binary form.
func EncodeTMRow(r *TMRow) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("%w: nil row", ErrRowCodec)
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, EncodedRowSize(len(r.Cols)))
	buf = append(buf, tmRowMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.User))
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.N))
	buf = binary.BigEndian.AppendUint64(buf, r.Epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Cols)))
	for _, j := range r.Cols {
		buf = binary.BigEndian.AppendUint32(buf, uint32(j))
	}
	for _, v := range r.Vals {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	return buf, nil
}

// DecodeTMRow parses a TM-row record. Any truncation, checksum mismatch,
// or semantic violation (unsorted columns, out-of-range values) returns an
// error wrapping ErrRowCodec; the decoder never panics on hostile input.
func DecodeTMRow(data []byte) (*TMRow, error) {
	if len(data) < tmRowHeaderSize+tmRowCRCSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrRowCodec, len(data), tmRowHeaderSize+tmRowCRCSize)
	}
	if [4]byte(data[:4]) != tmRowMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrRowCodec, data[:4])
	}
	count := binary.BigEndian.Uint32(data[20:24])
	if count > MaxTMRowEntries {
		return nil, fmt.Errorf("%w: declared %d entries above cap %d", ErrRowCodec, count, MaxTMRowEntries)
	}
	want := EncodedRowSize(int(count))
	if len(data) != want {
		return nil, fmt.Errorf("%w: %d bytes, want %d for %d entries", ErrRowCodec, len(data), want, count)
	}
	body, crc := data[:want-tmRowCRCSize], binary.BigEndian.Uint32(data[want-tmRowCRCSize:])
	if crc32.Checksum(body, crcTable) != crc {
		return nil, fmt.Errorf("%w: %v", ErrRowCodec, ErrChecksum)
	}
	r := &TMRow{
		User:  int32(binary.BigEndian.Uint32(data[4:8])),
		N:     int32(binary.BigEndian.Uint32(data[8:12])),
		Epoch: binary.BigEndian.Uint64(data[12:20]),
		Cols:  make([]int32, count),
		Vals:  make([]float64, count),
	}
	off := tmRowHeaderSize
	for k := range r.Cols {
		r.Cols[k] = int32(binary.BigEndian.Uint32(data[off : off+4]))
		off += 4
	}
	for k := range r.Vals {
		r.Vals[k] = math.Float64frombits(binary.BigEndian.Uint64(data[off : off+8]))
		off += 8
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return r, nil
}
