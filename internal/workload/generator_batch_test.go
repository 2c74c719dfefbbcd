package workload

import (
	"io"
	"testing"

	"ev8pred/internal/trace"
)

// next reads one record from src with a size-1 NextBatch into a zeroed
// slot: the record-at-a-time reference the batched reads are held to.
// false means the stream ended; generator streams cannot fail.
func next(src trace.Source) (trace.Branch, bool) {
	var one [1]trace.Branch
	n, _ := src.NextBatch(one[:])
	return one[0], n == 1
}

// oneByOne drains src through next.
func oneByOne(src trace.Source) []trace.Branch {
	var out []trace.Branch
	for {
		b, ok := next(src)
		if !ok {
			return out
		}
		out = append(out, b)
	}
}

// collect is trace.Collect for streams that must not fail.
func collect(t *testing.T, src trace.Source, max int) []trace.Branch {
	t.Helper()
	recs, err := trace.Collect(src, max)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// measure is trace.Measure over a whole stream that must not fail.
func measure(t *testing.T, src trace.Source) *trace.Stats {
	t.Helper()
	s, err := trace.Measure(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGeneratorNextBatchMatchesNext: batched reads must emit the exact
// record sequence of size-1 reads, across batch boundaries and at the
// budget edge, ending in a clean io.EOF.
func TestGeneratorNextBatchMatchesNext(t *testing.T) {
	prof, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 50_000
	want := oneByOne(MustNew(prof, budget))
	if len(want) == 0 {
		t.Fatal("reference stream is empty")
	}

	g := MustNew(prof, budget)
	buf := make([]trace.Branch, 257) // odd size: batch edges never align with anything
	var got []trace.Branch
	for {
		n, err := g.NextBatch(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("batched stream has %d records, size-1 reads give %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: batched %+v != size-1 %+v", i, got[i], want[i])
		}
	}
	// Exhausted generator keeps reporting clean EOF.
	if n, err := g.NextBatch(buf); n != 0 || err != io.EOF {
		t.Errorf("post-EOF NextBatch = (%d, %v), want (0, io.EOF)", n, err)
	}
}

// TestGeneratorNextBatchMatchesNextEverywhere holds NextBatch, which writes
// records in place, to size-1 reads into a zeroed slot on every profile,
// two seeds and three budgets, through odd buffer sizes. The buffers start full of garbage
// records (every field set, Thread too), so a field NextBatch fails to
// write shows; budgets stop mid-batch, and NextBatch must leave the slots
// past the stop untouched.
func TestGeneratorNextBatchMatchesNextEverywhere(t *testing.T) {
	garbage := trace.Branch{PC: 0xdead, Target: 0xbeef, Taken: true, Gap: 99, Kind: trace.Return, Thread: 7}
	midBatch := 0
	for _, base := range Benchmarks() {
		for _, seed := range []uint64{base.Seed, base.Seed ^ 0x5eed} {
			prof := base
			prof.Seed = seed
			for _, budget := range []int64{1, 3001, 40_009} {
				want := oneByOne(MustNew(prof, budget))
				for _, size := range []int{1, 7, 257, 1023} {
					g := MustNew(prof, budget)
					buf := make([]trace.Branch, size)
					var got []trace.Branch
					for {
						for i := range buf {
							buf[i] = garbage
						}
						n, err := g.NextBatch(buf)
						got = append(got, buf[:n]...)
						if err == io.EOF {
							break
						}
						if err != nil {
							t.Fatal(err)
						}
						if n < size {
							midBatch++
							for i := n; i < size; i++ {
								if buf[i] != garbage {
									t.Fatalf("%s seed %#x budget %d size %d: slot %d past the stop at %d written",
										prof.Name, seed, budget, size, i, n)
								}
							}
						}
					}
					if len(got) != len(want) {
						t.Fatalf("%s seed %#x budget %d size %d: %d records, size-1 reads give %d",
							prof.Name, seed, budget, size, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s seed %#x budget %d size %d: record %d is %+v, size-1 reads give %+v",
								prof.Name, seed, budget, size, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	if midBatch == 0 {
		t.Error("no budget stopped mid-batch")
	}
}
