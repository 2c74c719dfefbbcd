package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ev8pred/internal/predictor/bimodal"
	"ev8pred/internal/sim"
	"ev8pred/internal/trace"
)

// flowBranches generates a two-thread, flow-consistent branch stream
// (per-thread PC chains, all four record kinds, forward and backward
// targets) so that mutants can be driven through the full front end —
// not just the decoder — without tripping the tracker's flow check on
// the *valid* prefix.
func flowBranches(n int) []trace.Branch {
	rng := rand.New(rand.NewSource(7))
	cursor := map[int]uint64{0: 0x10_0000, 1: 0x20_0000}
	out := make([]trace.Branch, 0, n)
	for i := 0; i < n; i++ {
		th := rng.Intn(2)
		gap := rng.Intn(9)
		b := trace.Branch{
			PC:     cursor[th] + uint64(gap)*trace.InstrBytes,
			Gap:    gap,
			Thread: th,
		}
		switch rng.Intn(10) {
		case 0:
			b.Kind = trace.Jump
		case 1:
			b.Kind = trace.Call
		case 2:
			b.Kind = trace.Return
		}
		if rng.Intn(3) == 0 {
			b.Target = b.PC - uint64(rng.Intn(64))*trace.InstrBytes
		} else {
			b.Target = b.PC + uint64(2+rng.Intn(40))*trace.InstrBytes
		}
		b.Taken = b.Kind != trace.Cond || rng.Intn(2) == 0
		out = append(out, b)
		cursor[th] = b.NextPC()
	}
	return out
}

// encodeV2 serializes branches as a format-2 stream with a tiny chunk
// target so the fixture spans many chunks plus the footer.
func encodeV2(t testing.TB, branches []trace.Branch, chunkTarget int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.SetChunkTarget(chunkTarget)
	for _, b := range branches {
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decode drains a serialized trace through the Reader, returning the
// records delivered before the terminal condition and the terminal
// error (nil for a clean EOF).
func decode(data []byte) ([]trace.Branch, error) {
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return trace.Collect(r, 0)
}

// simRun drives a serialized trace through the Reader-as-Source into
// sim.Run, the end-to-end path every binary uses.
func simRun(t testing.TB, data []byte) error {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	p, err := bimodal.New(64)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(p, r, sim.Options{})
	return err
}

// checkMutant asserts the fault contract for one mutated stream: a
// typed error (never nil — a nil would be a silent short read), always
// wrapping ErrBadFormat, and any records delivered before detection
// are an exact prefix of the originals (corruption never fabricates or
// alters a record, it only ends the stream early — with an error).
func checkMutant(t *testing.T, label string, mutant []byte, orig []trace.Branch) {
	t.Helper()
	got, err := decode(mutant)
	if err == nil {
		t.Fatalf("%s: decode succeeded (%d records): silent corruption", label, len(got))
	}
	if !errors.Is(err, trace.ErrBadFormat) {
		t.Fatalf("%s: error not ErrBadFormat: %v", label, err)
	}
	if len(got) > len(orig) {
		t.Fatalf("%s: decoded %d records from a trace of %d", label, len(got), len(orig))
	}
	for i, b := range got {
		if b != orig[i] {
			t.Fatalf("%s: record %d altered before detection: got %+v want %+v", label, i, b, orig[i])
		}
	}
}

func TestFaultInjectionSuite(t *testing.T) {
	branches := flowBranches(400)
	data := encodeV2(t, branches, 96) // ~2 KB across ~20 chunks + footer

	// The unmutated stream must round-trip exactly and simulate cleanly;
	// otherwise every assertion below is vacuous.
	got, err := decode(data)
	if err != nil {
		t.Fatalf("pristine trace failed to decode: %v", err)
	}
	if len(got) != len(branches) {
		t.Fatalf("pristine trace decoded %d records, want %d", len(got), len(branches))
	}
	for i := range got {
		if got[i] != branches[i] {
			t.Fatalf("pristine record %d: got %+v want %+v", i, got[i], branches[i])
		}
	}
	if err := simRun(t, data); err != nil {
		t.Fatalf("pristine trace failed to simulate: %v", err)
	}

	// Every proper prefix must be rejected: the footer makes even a
	// truncation at a chunk boundary (a syntactically complete stream
	// minus its tail) detectable.
	truncations := 0
	EachTruncation(data, func(n int, mutant []byte) {
		checkMutant(t, labelf("truncate[%d]", n), mutant, branches)
		truncations++
	})
	if truncations != len(data) {
		t.Fatalf("enumerated %d truncations, want %d", truncations, len(data))
	}

	// Every single-bit flip must be rejected: header flips by version/
	// magic validation, payload flips by the chunk CRC, length/footer
	// flips by CRC or count mismatch or forced truncation.
	flips := 0
	EachBitFlip(data, func(off int, bit uint, mutant []byte) {
		checkMutant(t, labelf("flip[%d.%d]", off, bit), mutant, branches)
		flips++
	})
	if flips != 8*len(data) {
		t.Fatalf("enumerated %d bit flips, want %d", flips, 8*len(data))
	}
}

// TestFaultPropagatesThroughSim drives a strided sample of the mutants
// through the full sim.Run path: the decode error must surface as a
// non-nil, ErrBadFormat-wrapped run error — never a short-but-"valid"
// Result — and the front end must not panic on the delivered prefix.
func TestFaultPropagatesThroughSim(t *testing.T) {
	branches := flowBranches(400)
	data := encodeV2(t, branches, 96)

	check := func(label string, mutant []byte) {
		t.Helper()
		err := simRun(t, mutant)
		if err == nil {
			t.Fatalf("%s: sim.Run succeeded on a corrupted trace", label)
		}
		if !errors.Is(err, trace.ErrBadFormat) {
			t.Fatalf("%s: sim error not ErrBadFormat: %v", label, err)
		}
	}
	EachTruncation(data, func(n int, mutant []byte) {
		if n%13 == 0 {
			check(labelf("truncate[%d]", n), mutant)
		}
	})
	EachBitFlip(data, func(off int, bit uint, mutant []byte) {
		if (8*off+int(bit))%97 == 0 {
			check(labelf("flip[%d.%d]", off, bit), mutant)
		}
	})
}

// TestVersionByteBitFlipsNeverDowngrade pins the design argument for
// bit-level fault coverage: no single-bit flip of the version byte 0x02
// can produce 0x01, so a corrupted v2 stream is never parsed with the
// unchecksummed v1 decoder. (A byte-value substitution could; that is a
// different fault model, and one the self-describing header cannot
// defend against without an outer checksum.)
func TestVersionByteBitFlipsNeverDowngrade(t *testing.T) {
	for bit := uint(0); bit < 8; bit++ {
		v := byte(2) ^ 1<<bit
		if v == 1 {
			t.Fatalf("version byte 0x02 with bit %d flipped yields 0x01: silent v1 downgrade possible", bit)
		}
	}
}

func TestCorpusDeterministicAndOwned(t *testing.T) {
	data := encodeV2(t, flowBranches(50), 64)
	a := Corpus(data, 17)
	b := Corpus(data, 17)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("corpus mutant %d not deterministic", i)
		}
	}
	// Mutants must be owned copies: clobbering one must not affect the
	// source or a sibling.
	orig := append([]byte(nil), data...)
	for _, m := range a {
		for i := range m {
			m[i] = 0xFF
		}
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("corpus mutants alias the source buffer")
	}
}

// FuzzMutatedTrace hands the fuzzer a Corpus-sampled mutant seed set
// and lets it explore beyond single faults: whatever it synthesizes,
// the decoder must fail typed (ErrBadFormat) or succeed — never panic,
// never return an untyped error from in-memory input.
func FuzzMutatedTrace(f *testing.F) {
	data := encodeV2(f, flowBranches(60), 64)
	for _, m := range Corpus(data, 23) {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if _, err := decode(b); err != nil && !errors.Is(err, trace.ErrBadFormat) {
			t.Fatalf("decode error not ErrBadFormat: %v", err)
		}
	})
}

func labelf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
