package snapshot

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestRoundTrip pins encode → decode identity for every field type, in
// order, with a clean Finish.
func TestRoundTrip(t *testing.T) {
	e := NewEncoder("test/v1")
	e.Uint64(0)
	e.Uint64(^uint64(0))
	e.Int64(-42)
	e.Bool(true)
	e.Bool(false)
	e.Byte(0xA5)
	e.Bytes([]byte{1, 2, 3})
	e.Bytes(nil)
	e.String("hello")
	e.Words([]uint64{7, 8, 9})
	data := e.Finish()

	d, err := NewDecoder(data, "test/v1")
	if err != nil {
		t.Fatal(err)
	}
	if d.Label() != "test/v1" {
		t.Errorf("label %q", d.Label())
	}
	for _, want := range []uint64{0, ^uint64(0)} {
		if got := d.Uint64(); got != want {
			t.Fatalf("Uint64 = %d (want %d)", got, want)
		}
	}
	if got := d.Int64(); got != -42 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := d.Bool(); !got {
		t.Fatalf("Bool = %v", got)
	}
	if got := d.Bool(); got {
		t.Fatalf("Bool = %v", got)
	}
	if got := d.Byte(); got != 0xA5 {
		t.Fatalf("Byte = %#x", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", got)
	}
	if got := d.Bytes(); got == nil || len(got) != 0 {
		t.Fatalf("empty Bytes = %#v, want a non-nil empty slice", got)
	}
	if got := d.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if ws := d.WordsExact(3); len(ws) != 3 || ws[0] != 7 || ws[2] != 9 {
		t.Fatalf("WordsExact = %v", ws)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestTypedRefusals pins the decoder's typed-error surface: label
// mismatch, leftover payload, short reads, malformed booleans, and
// word-count mismatches all surface from Finish wrapping ErrBadSnapshot.
func TestTypedRefusals(t *testing.T) {
	e := NewEncoder("a/v1")
	e.Uint64(5)
	e.Words([]uint64{1, 2})
	data := e.Finish()

	if _, err := NewDecoder(data, "b/v1"); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("label mismatch: %v", err)
	}
	decoder := func() *Decoder {
		t.Helper()
		d, err := NewDecoder(data, "")
		if err != nil {
			t.Fatalf("wildcard label refused: %v", err)
		}
		return d
	}

	d := decoder()
	if err := d.Finish(); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("Finish with leftover payload: %v", err)
	}

	d = decoder()
	d.Uint64()
	if ws := d.WordsExact(3); ws != nil {
		t.Errorf("word-count mismatch returned %v", ws)
	}
	if err := d.Finish(); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("word-count mismatch: %v", err)
	}

	d = decoder()
	d.Uint64()
	d.Words()
	d.Uint64()
	if err := d.Finish(); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("read past payload: %v", err)
	}

	be := NewEncoder("bool/v1")
	be.Byte(2) // not a legal boolean
	bd, err := NewDecoder(be.Finish(), "bool/v1")
	if err != nil {
		t.Fatal(err)
	}
	if bd.Bool() {
		t.Error("malformed boolean read as true")
	}
	if err := bd.Finish(); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("malformed boolean: %v", err)
	}
}

// TestStickyError pins the sticky contract: after a truncated read, every
// read returns its zero value, Remaining stops moving, and Finish returns
// the first error, not a later one.
func TestStickyError(t *testing.T) {
	e := NewEncoder("sticky/v1")
	e.Uint64(1)
	e.Byte(0xFF)
	e.Byte(0xFF)
	e.Byte(0xFF)
	d, err := NewDecoder(e.Finish(), "sticky/v1")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Uint64(); got != 1 {
		t.Fatalf("Uint64 = %d, want 1", got)
	}
	if got := d.Uint64(); got != 0 { // 3 bytes left: truncated
		t.Fatalf("truncated Uint64 = %d, want 0", got)
	}
	first := d.Finish()
	if !errors.Is(first, ErrBadSnapshot) || !strings.Contains(first.Error(), "truncated") {
		t.Fatalf("Finish = %v, want a truncation wrapping ErrBadSnapshot", first)
	}
	rem := d.Remaining()
	if rem != 3 {
		t.Fatalf("Remaining = %d after the failed read, want 3", rem)
	}
	if v := d.Byte(); v != 0 {
		t.Errorf("Byte after failure = %#x, want 0", v)
	}
	if v := d.Bool(); v {
		t.Error("Bool after failure = true")
	}
	if v := d.Int64(); v != 0 {
		t.Errorf("Int64 after failure = %d", v)
	}
	if v := d.Bytes(); v != nil {
		t.Errorf("Bytes after failure = %v", v)
	}
	if v := d.String(); v != "" {
		t.Errorf("String after failure = %q", v)
	}
	if v := d.Words(); v != nil {
		t.Errorf("Words after failure = %v", v)
	}
	if v := d.WordsExact(0); v != nil {
		t.Errorf("WordsExact after failure = %v", v)
	}
	if d.Remaining() != rem {
		t.Errorf("Remaining moved after failure: %d -> %d", rem, d.Remaining())
	}
	if err := d.Finish(); err != first {
		t.Errorf("Finish = %v, want the first error %v", err, first)
	}
}

// TestChecksumIsChecked flips one payload bit and expects ErrChecksum
// (which itself wraps ErrBadSnapshot) before any field is readable.
func TestChecksumIsChecked(t *testing.T) {
	e := NewEncoder("crc/v1")
	e.Uint64(12345)
	data := e.Finish()
	data[len(data)-6] ^= 0x40
	_, err := NewDecoder(data, "crc/v1")
	if !errors.Is(err, ErrChecksum) || !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("corrupted payload: %v", err)
	}
}
