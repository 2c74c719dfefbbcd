package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// fuzzSeedV2 builds a representative version-2 stream (several chunks
// plus footer) for seeding the decoder fuzzers.
func fuzzSeedV2(f *testing.F) []byte {
	f.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	w.SetChunkTarget(64)
	for _, b := range sampleBranches(80, 99) {
		if err := w.Write(b); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReader throws arbitrary bytes at the decoder. The contract under
// test: never panic, always terminate, and — because a bytes.Reader can
// produce no real I/O error — every failure must be a typed format
// error (errors.Is(err, ErrBadFormat)), never a bare short read.
func FuzzReader(f *testing.F) {
	// Seed with valid traces of both versions, and with WriteAll's
	// default-version stream of the version-1 seed's records.
	var v1 bytes.Buffer
	w, err := NewWriterVersion(&v1, version1)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range sampleBranches(50, 99) {
		if err := w.Write(b); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	var whole bytes.Buffer
	if _, err := WriteAll(&whole, NewSlice(sampleBranches(50, 99))); err != nil {
		f.Fatal(err)
	}
	f.Add(whole.Bytes())
	v2 := fuzzSeedV2(f)
	f.Add(v2)
	f.Add([]byte(magic + "\x01"))
	f.Add([]byte(magic + "\x02"))
	f.Add([]byte("EV8T\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte{})
	f.Add([]byte("garbage"))

	// Seed with fault-injection mutants of the v2 stream: a strided
	// sample of prefix truncations and single-bit flips, the same
	// mutation classes internal/trace/faultinject enumerates
	// exhaustively (imported here they would cycle, so inlined).
	for n := 0; n < len(v2); n += 7 {
		f.Add(v2[:n:n])
	}
	for off := 0; off < len(v2); off += 11 {
		m := append([]byte(nil), v2...)
		m[off] ^= 1 << (uint(off) % 8)
		f.Add(m)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("header error not ErrBadFormat: %v", err)
			}
			return
		}
		one := make([]Branch, 1)
		for i := 0; i < 1_000_000; i++ {
			if _, err := r.NextBatch(one); err != nil {
				if err != io.EOF && !errors.Is(err, ErrBadFormat) {
					t.Fatalf("decode error not ErrBadFormat: %v", err)
				}
				return
			}
		}
		t.Fatal("decoder failed to terminate on bounded input")
	})
}

// FuzzRoundTrip checks encode→decode identity over arbitrary field
// values, through both the checksummed version-2 container (CRC chunks
// + counted footer) and the legacy version-1 framing.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0x1000), uint64(0x2000), true, uint16(7), uint8(0), uint8(0))
	f.Add(uint64(0), uint64(1<<62), false, uint16(65535), uint8(3), uint8(255))

	f.Fuzz(func(t *testing.T, pc, target uint64, taken bool, gap uint16, kind, thread uint8) {
		b := Branch{
			PC:     pc,
			Target: target,
			Taken:  taken,
			Gap:    int(gap),
			Kind:   Kind(kind % uint8(numKinds)),
			Thread: int(thread),
		}
		for _, version := range []int{version1, version2} {
			var buf bytes.Buffer
			w, err := NewWriterVersion(&buf, version)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(b); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			got, err := readAll(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("v%d: %v", version, err)
			}
			if len(got) != 1 || got[0] != b {
				t.Fatalf("v%d round trip: wrote %+v, read %+v", version, b, got)
			}
		}
	})
}
