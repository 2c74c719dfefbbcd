package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"ev8pred/internal/rng"
)

func sampleBranches(n int, seed uint64) []Branch {
	r := rng.New(seed, 0)
	pc := uint64(0x1000)
	out := make([]Branch, n)
	for i := range out {
		b := Branch{
			PC:    pc,
			Taken: r.Bool(0.6),
			Gap:   r.Intn(12),
		}
		if r.Bool(0.9) {
			b.Target = pc + uint64(r.Intn(4096))*InstrBytes - 2048*InstrBytes
		} else {
			b.Target = b.FallThrough()
		}
		if r.Bool(0.2) {
			b.Thread = r.Intn(4)
		}
		if r.Bool(0.15) {
			b.Kind = Kind(1 + r.Intn(3))
			b.Taken = true
		}
		out[i] = b
		pc += uint64(b.Gap+1) * InstrBytes
		if b.Taken {
			pc = b.Target
		}
	}
	return out
}

func TestFallThroughAndNextPC(t *testing.T) {
	b := Branch{PC: 0x100, Target: 0x200, Taken: true}
	if b.FallThrough() != 0x104 {
		t.Errorf("FallThrough = %#x", b.FallThrough())
	}
	if b.NextPC() != 0x200 {
		t.Errorf("NextPC taken = %#x", b.NextPC())
	}
	b.Taken = false
	if b.NextPC() != 0x104 {
		t.Errorf("NextPC not-taken = %#x", b.NextPC())
	}
}

// readAll decodes an entire trace stream into memory.
func readAll(rd io.Reader) ([]Branch, error) {
	r, err := NewReader(rd)
	if err != nil {
		return nil, err
	}
	return Collect(r, 0)
}

func TestSliceSource(t *testing.T) {
	recs := sampleBranches(10, 1)
	got, err := drainBatched(NewSlice(recs), 1)
	if err != io.EOF {
		t.Fatalf("terminal err = %v, want io.EOF", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestCollect(t *testing.T) {
	recs := sampleBranches(20, 2)
	got, err := Collect(NewSlice(recs), 0)
	if err != nil || len(got) != 20 {
		t.Fatalf("Collect all: %d records, err %v", len(got), err)
	}
	s := NewSlice(recs)
	got, err = Collect(s, 5)
	if err != nil || len(got) != 5 {
		t.Fatalf("Collect limited: %d records, err %v", len(got), err)
	}
	// The limit is not over-read: record 5 is still the source's next.
	next := make([]Branch, 1)
	if n, err := s.NextBatch(next); n != 1 || err != nil || next[0] != recs[5] {
		t.Fatalf("after Collect(5): NextBatch = (%d, %v), %+v", n, err, next[0])
	}
}

func TestCollectReturnsStreamFailure(t *testing.T) {
	recs := sampleBranches(12_000, 3)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSlice(recs)); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(bytes.NewReader(buf.Bytes()[:buf.Len()/2]))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Collect over a truncated trace: err = %v, want ErrBadFormat", err)
	}
	if len(got) == 0 || len(got) >= len(recs) {
		t.Fatalf("prefix of %d records before the failure, want 0 < n < %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("prefix record %d altered", i)
		}
	}
}

func TestStats(t *testing.T) {
	s := NewStats()
	s.Add(Branch{PC: 0x100, Taken: true, Gap: 9})
	s.Add(Branch{PC: 0x200, Taken: false, Gap: 4})
	s.Add(Branch{PC: 0x100, Taken: true, Gap: 9, Thread: 1})
	s.Add(Branch{PC: 0x300, Taken: true, Gap: 5, Kind: Call})
	if s.DynamicBranches != 3 || s.StaticBranches != 2 {
		t.Errorf("dyn=%d static=%d", s.DynamicBranches, s.StaticBranches)
	}
	if s.Transfers != 1 {
		t.Errorf("transfers = %d", s.Transfers)
	}
	if s.Instructions != 10+5+10+6 {
		t.Errorf("instructions = %d", s.Instructions)
	}
	if s.Taken != 2 {
		t.Errorf("taken = %d (calls must not count)", s.Taken)
	}
	if got := s.TakenRate(); got < 0.66 || got > 0.67 {
		t.Errorf("TakenRate = %v", got)
	}
	if got := s.BranchesPerKI(); got < 96 || got > 97 {
		t.Errorf("BranchesPerKI = %v", got)
	}
	if th := s.Threads(); len(th) != 2 || th[0] != 0 || th[1] != 1 {
		t.Errorf("Threads = %v", th)
	}
	if !strings.Contains(s.String(), "3 dyn cond branches") {
		t.Errorf("String = %q", s.String())
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{Cond: "cond", Jump: "jump", Call: "call", Return: "return", Kind(9): "invalid"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestWriterRejectsInvalidKind(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Branch{Kind: Kind(7)}); err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestStatsEmpty(t *testing.T) {
	s := NewStats()
	if s.TakenRate() != 0 || s.BranchesPerKI() != 0 {
		t.Error("empty stats should report zero rates")
	}
}

func TestMeasure(t *testing.T) {
	recs := sampleBranches(100, 4)
	wantCond := int64(0)
	for _, b := range recs {
		if b.Kind == Cond {
			wantCond++
		}
	}
	s, err := Measure(NewSlice(recs), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.DynamicBranches != wantCond {
		t.Fatalf("measured %d, want %d", s.DynamicBranches, wantCond)
	}
	if s.DynamicBranches+s.Transfers != 100 {
		t.Fatalf("cond+transfers = %d", s.DynamicBranches+s.Transfers)
	}
	src := NewSlice(recs)
	s, err = Measure(src, 10)
	if err != nil || s.DynamicBranches != 10 {
		t.Fatalf("limited measure %d, err %v", s.DynamicBranches, err)
	}
	// The limit is not over-read: the source resumes right after the
	// tenth conditional branch.
	if src.pos != int(s.DynamicBranches+s.Transfers) {
		t.Fatalf("limited measure read %d records, counted %d", src.pos, s.DynamicBranches+s.Transfers)
	}
}

func TestFileRoundTrip(t *testing.T) {
	recs := sampleBranches(5000, 5)
	var buf bytes.Buffer
	n, err := WriteAll(&buf, NewSlice(recs))
	if err != nil {
		t.Fatal(err)
	}
	if n != 5000 {
		t.Fatalf("wrote %d", n)
	}
	got, err := readAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

func TestFileCompactness(t *testing.T) {
	recs := sampleBranches(10000, 6)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSlice(recs)); err != nil {
		t.Fatal(err)
	}
	perRecord := float64(buf.Len()) / float64(len(recs))
	if perRecord > 8 {
		t.Errorf("%.1f bytes/record, want <= 8 (delta coding broken?)", perRecord)
	}
}

func TestReaderAsSource(t *testing.T) {
	recs := sampleBranches(50, 7)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSlice(recs)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("source read %d", len(got))
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(strings.NewReader("not a trace")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := NewReader(strings.NewReader("EV")); err == nil {
		t.Error("short input accepted")
	}
	// Wrong version.
	if _, err := NewReader(strings.NewReader(magic + "\x07")); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	recs := sampleBranches(10, 8)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSlice(recs)); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-1]
	_, err := readAll(bytes.NewReader(cut))
	if err == nil {
		t.Error("truncated trace decoded without error")
	}
}

func TestReaderCleanEOF(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSlice(nil)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.NextBatch(make([]Branch, 1)); n != 0 || err != io.EOF {
		t.Errorf("empty trace NextBatch = (%d, %v), want (0, io.EOF)", n, err)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(pcs []uint32, takens []bool) bool {
		n := len(pcs)
		if len(takens) < n {
			n = len(takens)
		}
		recs := make([]Branch, 0, n)
		for i := 0; i < n; i++ {
			b := Branch{
				PC:    uint64(pcs[i]) &^ 3,
				Taken: takens[i],
				Gap:   int(pcs[i] % 13),
			}
			b.Target = b.PC ^ (uint64(pcs[i]) << 2 & 0xfffc)
			recs = append(recs, b)
		}
		var buf bytes.Buffer
		if _, err := WriteAll(&buf, NewSlice(recs)); err != nil {
			return false
		}
		got, err := readAll(&buf)
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWriter(b *testing.B) {
	recs := sampleBranches(1000, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := WriteAll(&buf, NewSlice(recs)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReader(b *testing.B) {
	recs := sampleBranches(1000, 10)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSlice(recs)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readAll(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOpenPlainAndGzip(t *testing.T) {
	recs := sampleBranches(500, 11)
	dir := t.TempDir()

	plain := dir + "/t.ev8t"
	f, err := os.Create(plain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteAll(f, NewSlice(recs)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	zipped := dir + "/t.ev8t.gz"
	f, err = os.Create(zipped)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if _, err := WriteAll(gz, NewSlice(recs)); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, path := range []string{plain, zipped} {
		r, closer, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, err := Collect(r, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if err := closer.Close(); err != nil {
			t.Fatalf("%s: close: %v", path, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%s: read %d records, want %d", path, len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("%s: record %d mismatch", path, i)
			}
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, _, err := Open(t.TempDir() + "/missing"); err == nil {
		t.Error("missing file accepted")
	}
	bad := t.TempDir() + "/bad"
	if err := os.WriteFile(bad, []byte("garbage here"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(bad); err == nil {
		t.Error("garbage file accepted")
	}
}

func TestForceThread(t *testing.T) {
	recs := sampleBranches(20, 12)
	got, err := drainBatched(&ForceThread{Src: NewSlice(recs), Thread: 5}, 1)
	if err != io.EOF {
		t.Fatalf("terminal err = %v, want io.EOF", err)
	}
	for i, b := range got {
		if b.Thread != 5 {
			t.Fatalf("record %d thread = %d", i, b.Thread)
		}
	}
	if len(got) != len(recs) {
		t.Fatalf("yielded %d records", len(got))
	}
}

func TestReaderNextStopsOnDecodeError(t *testing.T) {
	recs := sampleBranches(10, 13)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSlice(recs)); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-1]
	r, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	_, err = drainBatched(r, 1)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("truncated stream ended with %v, want a decode error", err)
	}
	// The error is sticky.
	if n, err2 := r.NextBatch(make([]Branch, 1)); n != 0 || err2 != err {
		t.Errorf("NextBatch after error = (%d, %v), want (0, %v)", n, err2, err)
	}
}
