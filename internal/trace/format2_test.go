package trace

import (
	"bytes"
	"errors"
	"testing"
)

// Regression tests for the format-2 container and the hardened Writer
// contract: field validation at write, integrity checking at read,
// sticky I/O errors, and version-1 compatibility.

// TestWriterRejectsNegativeGap pins the varint-wrap bug: Gap is encoded
// as an unsigned varint, so a negative value used to wrap to a
// 10-byte, multi-exabyte gap that round-tripped into a corrupt stream.
// It must be rejected at write time instead.
func TestWriterRejectsNegativeGap(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Write(Branch{PC: 0x1000, Gap: -1})
	if !errors.Is(err, ErrBadRecord) {
		t.Fatalf("Gap -1 write err = %v, want ErrBadRecord", err)
	}
	if w.Count() != 0 {
		t.Fatalf("rejected record advanced Count to %d", w.Count())
	}
	// Rejection is not sticky: a valid record afterwards still works
	// and the stream stays decodable.
	good := Branch{PC: 0x1000, Taken: true, Target: 0x2000, Gap: 3}
	if err := w.Write(good); err != nil {
		t.Fatalf("valid record after rejection: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != good {
		t.Fatalf("round trip after rejection: %+v", got)
	}
}

// TestWriterRejectsNegativeThread: same wrap hazard as Gap, same fix.
func TestWriterRejectsNegativeThread(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Write(Branch{PC: 0x1000, Thread: -2})
	if !errors.Is(err, ErrBadRecord) {
		t.Fatalf("Thread -2 write err = %v, want ErrBadRecord", err)
	}
	if w.Count() != 0 {
		t.Fatalf("rejected record advanced Count to %d", w.Count())
	}
}

// failingWriter fails every write once armed, modeling a full disk.
type failingWriter struct {
	armed bool
	n     int64 // bytes accepted
}

var errDiskFull = errors.New("disk full")

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.armed {
		return 0, errDiskFull
	}
	f.n += int64(len(p))
	return len(p), nil
}

// TestWriterStickyIOError pins the state-desync bug: Write used to
// advance prevPC and the record count before the I/O error check, so a
// failed write left the ΔPC chain and the footer counts inconsistent
// with the bytes actually emitted. Now state advances only on success
// and the first I/O error poisons the writer.
func TestWriterStickyIOError(t *testing.T) {
	fw := &failingWriter{}
	w, err := NewWriter(fw)
	if err != nil {
		t.Fatal(err)
	}
	w.SetChunkTarget(1) // seal a chunk per record to reach the bufio layer fast
	fw.armed = true

	recs := sampleBranches(4096, 12)
	var ioErr error
	countAtFailure := int64(-1)
	for _, b := range recs {
		before := w.Count()
		if err := w.Write(b); err != nil {
			ioErr = err
			countAtFailure = before
			if w.Count() != before {
				t.Fatalf("failed Write advanced Count %d -> %d", before, w.Count())
			}
			break
		}
	}
	if ioErr == nil {
		t.Fatal("failing writer never surfaced an error")
	}
	if !errors.Is(ioErr, errDiskFull) {
		t.Fatalf("Write err = %v, want wrapped disk-full", ioErr)
	}
	// Sticky: every subsequent operation reports the original failure
	// without touching state.
	if err := w.Write(Branch{PC: 0x99, Gap: 1}); !errors.Is(err, errDiskFull) {
		t.Fatalf("Write after failure = %v, want sticky error", err)
	}
	if err := w.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Flush after failure = %v, want sticky error", err)
	}
	if w.Count() != countAtFailure {
		t.Fatalf("sticky writer advanced Count %d -> %d", countAtFailure, w.Count())
	}
}

// TestV1CompatRoundTrip: version-1 streams remain writable (for old
// consumers) and readable (for old archives).
func TestV1CompatRoundTrip(t *testing.T) {
	recs := sampleBranches(200, 5)
	var buf bytes.Buffer
	w, err := NewWriterVersion(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Version() != 1 {
		t.Fatalf("writer version = %d", w.Version())
	}
	for _, b := range recs {
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 1 {
		t.Fatalf("reader version = %d", r.Version())
	}
	got, err := Collect(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("v1 round trip: %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("v1 record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

// encodeV2Tiny serializes records with a small chunk target so the
// corruption tests span several chunks.
func encodeV2Tiny(t *testing.T, recs []Branch) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.SetChunkTarget(64)
	for _, b := range recs {
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestV2DetectsPayloadCorruption(t *testing.T) {
	data := encodeV2Tiny(t, sampleBranches(100, 3))
	mutant := append([]byte(nil), data...)
	mutant[len(mutant)/2] ^= 0x40 // somewhere inside a chunk payload
	_, err := readAll(bytes.NewReader(mutant))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("corrupted payload err = %v, want ErrBadFormat", err)
	}
}

// TestV2DetectsCleanTruncation: cutting the stream exactly at the
// footer leaves a syntactically complete chunk sequence — the case the
// footer exists for. Version 1 cannot detect this.
func TestV2DetectsCleanTruncation(t *testing.T) {
	data := encodeV2Tiny(t, sampleBranches(100, 3))
	// The footer is marker(1) + CRC(4) + two count uvarints; find it by
	// cutting everything after the final chunk: scan framing from the
	// header.
	off := len(magic) + 1
	for {
		length, n := binaryUvarint(data[off:])
		if n <= 0 {
			t.Fatal("bad framing scan")
		}
		if length == 0 {
			break // off is the footer marker
		}
		off += n + 4 + int(length)
	}
	_, err := readAll(bytes.NewReader(data[:off]))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("footer-less stream err = %v, want ErrBadFormat", err)
	}
}

func TestV2DetectsTrailingData(t *testing.T) {
	data := encodeV2Tiny(t, sampleBranches(20, 3))
	mutant := append(append([]byte(nil), data...), 0x00)
	_, err := readAll(bytes.NewReader(mutant))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("trailing data err = %v, want ErrBadFormat", err)
	}
}

// binaryUvarint is binary.Uvarint without importing encoding/binary in
// the test twice over; kept local for the framing scan above.
func binaryUvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// TestWriterCounts: the accessors feeding the footer must agree with
// the stream contents.
func TestWriterCounts(t *testing.T) {
	recs := sampleBranches(50, 9)
	var wantInstr int64
	for _, b := range recs {
		wantInstr += int64(b.Gap) + 1
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range recs {
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != int64(len(recs)) || w.Instructions() != wantInstr {
		t.Fatalf("Count=%d Instructions=%d, want %d/%d", w.Count(), w.Instructions(), len(recs), wantInstr)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// A second Flush is a harmless no-op (footer written once).
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
}
