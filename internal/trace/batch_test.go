package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// drainBatched pulls a source dry through NextBatch with the given
// buffer size, returning the records and the terminal error.
func drainBatched(bs Source, bufLen int) ([]Branch, error) {
	buf := make([]Branch, bufLen)
	var out []Branch
	for {
		n, err := bs.NextBatch(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			return out, err
		}
	}
}

func TestSliceNextBatch(t *testing.T) {
	recs := sampleBranches(100, 11)
	got, err := drainBatched(NewSlice(recs), 7) // 100 % 7 != 0: final batch is short
	if err != io.EOF {
		t.Fatalf("terminal err = %v, want io.EOF", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("batched read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
	// Exhausted source keeps returning clean EOF.
	s := NewSlice(recs[:1])
	if _, err := drainBatched(s, 4); err != io.EOF {
		t.Fatal(err)
	}
	if n, err := s.NextBatch(make([]Branch, 4)); n != 0 || err != io.EOF {
		t.Errorf("post-EOF NextBatch = (%d, %v), want (0, io.EOF)", n, err)
	}
}

func TestForceThreadNextBatch(t *testing.T) {
	recs := sampleBranches(50, 23)
	for i := range recs {
		recs[i].Thread = i % 3 // scatter thread ids so the rewrite is visible
	}
	f := &ForceThread{Src: NewSlice(recs), Thread: 7}
	got, err := drainBatched(f, 16)
	if err != io.EOF {
		t.Fatalf("terminal err = %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i, b := range got {
		if b.Thread != 7 {
			t.Fatalf("record %d: thread %d not rewritten", i, b.Thread)
		}
		want := recs[i]
		want.Thread = 7
		if b != want {
			t.Fatalf("record %d: %+v, want %+v", i, b, want)
		}
	}
}

func TestReaderNextBatch(t *testing.T) {
	recs := sampleBranches(500, 13)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSlice(recs)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainBatched(r, 64)
	if err != io.EOF {
		t.Fatalf("terminal err = %v, want io.EOF", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("batched read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
	if n, err := r.NextBatch(make([]Branch, 8)); n != 0 || err != io.EOF {
		t.Errorf("post-EOF NextBatch = (%d, %v), want (0, io.EOF)", n, err)
	}
}

// TestReaderNextBatchCorruption: a batch read that hits corruption must
// return the intact prefix with the error and stay sticky on every later
// call. The trace spans
// several v2 chunks and the flipped bit lands mid-stream, so the chunks
// before it decode and the rest are refused.
func TestReaderNextBatchCorruption(t *testing.T) {
	recs := sampleBranches(12_000, 14)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSlice(recs)); err != nil {
		t.Fatal(err)
	}
	mutant := append([]byte(nil), buf.Bytes()...)
	mutant[len(mutant)/2] ^= 0x40
	r, err := NewReader(bytes.NewReader(mutant))
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainBatched(r, 64)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("terminal err = %v, want ErrBadFormat", err)
	}
	if len(got) == 0 || len(got) >= len(recs) {
		t.Fatalf("prefix of %d records before the failure, want 0 < n < %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("prefix record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
	if n, err2 := r.NextBatch(make([]Branch, 8)); n != 0 || err2 != err {
		t.Errorf("post-error NextBatch = (%d, %v), want (0, %v)", n, err2, err)
	}
}
