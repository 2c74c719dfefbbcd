// Package snapshot is the wire codec behind every serialized piece of
// simulation state in the repository: predictor table snapshots
// (predictor.Snapshotter), front-end tracker state, and whole-run
// checkpoints (sim.Checkpoint). One codec, one integrity story.
//
// Container layout (little-endian):
//
//	magic   "EV8S"            4 bytes
//	version u8                1 byte (currently 1)
//	label   u32 len + bytes   what the payload is ("gshare/v1", ...)
//	payload codec fields
//	crc     CRC32C            4 bytes, over everything before it
//
// Integrity contract, mirroring trace format v2 (docs/RELIABILITY.md):
// every decode failure — truncation, any single-bit flip (CRC32 detects
// all of them), a bad magic/version, an over-long length field — surfaces
// as a typed error wrapping ErrBadSnapshot, never a panic and never a
// silently-wrong value. The fault-injection suite and FuzzSnapshotDecode
// enumerate exactly these mutations.
//
// Decoding follows io.Reader-style sticky errors: field reads return only
// a value, the first failed read is recorded and makes every later read
// return the zero value without advancing, and one Decoder.Finish call
// reports that first error (or unread trailing bytes). A decoder reads
// its fields straight through into locals, checks Finish once, validates
// ranges, and only then commits — so a failed restore leaves its receiver
// unchanged. A count that drives a loop or an allocation must still be
// bounded against Remaining before the loop, since a failed read no longer
// ends it.
//
// Fields are fixed-width (u64) rather than varint: snapshots are bulk
// table state where varints save little, and fixed layout keeps the
// fuzzer's job honest (no redundant encodings of the same value).
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Version is the current wire-format version.
const Version = 1

// magic identifies a snapshot container.
var magic = [4]byte{'E', 'V', '8', 'S'}

// ErrBadSnapshot is the root of every decode failure in this package;
// errors.Is(err, ErrBadSnapshot) holds for all of them.
var ErrBadSnapshot = errors.New("snapshot: malformed snapshot")

// ErrChecksum wraps ErrBadSnapshot for CRC mismatches specifically, so
// callers can distinguish corruption from structural misuse.
var ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)

// castagnoli is the CRC32C table (same polynomial family the trace v2
// container uses; hardware-accelerated on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encoder builds a snapshot container. The zero value is not usable;
// construct with NewEncoder.
type Encoder struct {
	buf []byte
}

// NewEncoder starts a container labeled label (the payload's type/version
// fingerprint, validated on decode).
func NewEncoder(label string) *Encoder {
	e := &Encoder{buf: make([]byte, 0, 64)}
	e.buf = append(e.buf, magic[:]...)
	e.buf = append(e.buf, Version)
	e.String(label)
	return e
}

// Uint64 appends v as 8 little-endian bytes.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Int64 appends v (two's complement in 8 bytes).
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool appends v as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Byte appends one raw byte.
func (e *Encoder) Byte(v byte) { e.buf = append(e.buf, v) }

// Bytes appends a u32 length prefix and the raw bytes.
func (e *Encoder) Bytes(b []byte) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends s as a length-prefixed byte string.
func (e *Encoder) String(s string) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Words appends a u32 count prefix and the raw 8-byte words.
func (e *Encoder) Words(ws []uint64) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(ws)))
	for _, w := range ws {
		e.Uint64(w)
	}
}

// Finish seals the container: the CRC32C of everything written so far is
// appended and the complete snapshot returned. The Encoder must not be
// used afterwards.
func (e *Encoder) Finish() []byte {
	sum := crc32.Checksum(e.buf, castagnoli)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, sum)
	return e.buf
}

// Decoder reads a snapshot container under the sticky-error contract in
// the package doc. A read fails on running past the payload, a length
// prefix longer than what remains, a boolean byte other than 0 or 1, or a
// word-count mismatch. Construct with NewDecoder, which verifies magic,
// version, label and checksum up front.
type Decoder struct {
	buf   []byte
	off   int
	end   int // payload end (exclusive of the trailing CRC)
	label string
	err   error // first failed read; sticky
}

// NewDecoder validates the container framing and checksum of data and
// positions a decoder at the first payload field. wantLabel must match
// the label the encoder was constructed with; pass "" to accept any
// label (Label reports it).
func NewDecoder(data []byte, wantLabel string) (*Decoder, error) {
	// Frame: magic(4) + version(1) + label len(4) + crc(4) minimum.
	if len(data) < 13 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the minimal container", ErrBadSnapshot, len(data))
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, data[:4])
	}
	if data[4] != Version {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrBadSnapshot, data[4], Version)
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, ErrChecksum
	}
	d := &Decoder{buf: data, off: 5, end: len(data) - 4}
	label := d.String()
	if d.err != nil {
		return nil, d.err
	}
	if wantLabel != "" && label != wantLabel {
		return nil, fmt.Errorf("%w: label %q, want %q", ErrBadSnapshot, label, wantLabel)
	}
	d.label = label
	return d, nil
}

// Label returns the container's label.
func (d *Decoder) Label() string { return d.label }

// Remaining returns how many payload bytes are left to read. It stops
// moving once a read has failed.
func (d *Decoder) Remaining() int { return d.end - d.off }

// Finish returns the first failed read's error, if any, and otherwise
// asserts the payload was fully consumed — trailing garbage in an
// otherwise CRC-valid container is a structural error, not padding.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != d.end {
		return fmt.Errorf("%w: %d unread payload bytes", ErrBadSnapshot, d.end-d.off)
	}
	return nil
}

// fail records the first failure; later ones are consequences of it.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrBadSnapshot}, args...)...)
	}
}

// take consumes the next n payload bytes, or returns nil — consuming
// nothing — once the decoder has failed or fewer than n remain.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.end-d.off < n {
		d.fail("truncated payload (need %d bytes, have %d)", n, d.end-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint64 reads an 8-byte little-endian word.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 reads a two's-complement 8-byte integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Bool reads one byte, requiring it to be exactly 0 or 1 (any other value
// means corruption the CRC did not cover — impossible for bit flips, but
// cheap to require).
func (d *Decoder) Bool() bool {
	b := d.Byte()
	if b > 1 {
		d.fail("boolean byte %#x", b)
		return false
	}
	return b == 1
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// prefixed reads a u32 count prefix and returns the count × elemSize
// bytes it covers. The count is validated against the remaining payload
// first, so a corrupted prefix can never drive a huge allocation or a
// bogus slice. It returns nil on failure and a non-nil slice otherwise.
func (d *Decoder) prefixed(elemSize int) []byte {
	b := d.take(4)
	if b == nil {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 0 || n*elemSize > d.end-d.off {
		d.fail("length %d exceeds remaining payload %d", n, d.end-d.off)
		return nil
	}
	return d.take(n * elemSize)
}

// Bytes reads a length-prefixed byte string (an owned copy).
func (d *Decoder) Bytes() []byte { return bytes.Clone(d.prefixed(1)) }

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.prefixed(1)) }

// Words reads a count-prefixed word slice.
func (d *Decoder) Words() []uint64 {
	b := d.prefixed(8)
	if b == nil {
		return nil
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

// WordsExact reads a count-prefixed word slice, requiring exactly want
// entries — the shape check every fixed-size table restore needs.
func (d *Decoder) WordsExact(want int) []uint64 {
	ws := d.Words()
	if ws != nil && len(ws) != want {
		d.fail("%d words, want %d", len(ws), want)
		return nil
	}
	return ws
}
