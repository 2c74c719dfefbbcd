package workload

import (
	"io"
	"testing"

	"ev8pred/internal/trace"
)

// TestGeneratorNextBatchMatchesNext: the batched leg must emit the exact
// record sequence of the per-record leg, across batch boundaries and at
// the budget edge, ending in a clean io.EOF.
func TestGeneratorNextBatchMatchesNext(t *testing.T) {
	prof, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 50_000
	want := trace.Collect(MustNew(prof, budget), 0)
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
		t.Fatalf("batched stream has %d records, per-record has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: batched %+v != per-record %+v", i, got[i], want[i])
		}
	}
	// Exhausted generator keeps reporting clean EOF.
	if n, err := g.NextBatch(buf); n != 0 || err != io.EOF {
		t.Errorf("post-EOF NextBatch = (%d, %v), want (0, io.EOF)", n, err)
	}

	// Interleaving Next and NextBatch advances one shared cursor.
	g2 := MustNew(prof, budget)
	b, ok := g2.Next()
	if !ok || b != want[0] {
		t.Fatal("Next did not yield record 0")
	}
	n, err := g2.NextBatch(buf[:4])
	if err != nil || n != 4 || buf[0] != want[1] {
		t.Fatalf("NextBatch after Next = (%d, %v), buf[0] = %+v", n, err, buf[0])
	}
}

// TestGeneratorNextBatchMatchesNextEverywhere holds NextBatch, which writes
// records in place, to Next on every profile, two seeds and three
// budgets, through odd buffer sizes. The buffers start full of garbage
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
				want := trace.Collect(MustNew(prof, budget), 0)
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
						t.Fatalf("%s seed %#x budget %d size %d: %d records, Next gives %d",
							prof.Name, seed, budget, size, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s seed %#x budget %d size %d: record %d is %+v, Next gives %+v",
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
