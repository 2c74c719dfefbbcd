package ev8pred_test

// Hot-path performance gates: per-predictor predict+update microbenchmarks
// over prerecorded events (the workload generator and front end are out of
// the measured loop), and a hard zero-allocation gate for the paper's hot
// predictors, plus the shared steady-state gate the whole-run zero-
// allocation tests use.

import (
	"runtime/debug"
	"testing"

	"ev8pred"
	"ev8pred/internal/hotbench"
	"ev8pred/internal/predictor"
	"ev8pred/internal/stats"
	"ev8pred/internal/trace"
)

const hotEvents = 4096

// checkSteadyStateAllocs is the steady-state allocation gate: a whole run
// carries constant setup cost (predictor tables, trackers, scratch,
// rings), so it compares the allocations of run over recs[:short] and
// over all of recs, five runs each — equal totals mean the marginal
// records allocated nothing. The garbage collector is off while it
// counts: a collection that lands inside the longer run makes the
// runtime allocate for its own bookkeeping, which would read as an
// allocation of the run.
func checkSteadyStateAllocs(t *testing.T, what string, recs []ev8pred.Branch, short int, run func([]ev8pred.Branch)) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := testing.AllocsPerRun(5, func() { run(recs[:short]) })
	l := testing.AllocsPerRun(5, func() { run(recs) })
	if extra := l - s; extra > 0 {
		t.Errorf("%s: %.1f extra allocs for %d extra records, want 0 (short=%.1f long=%.1f)",
			what, extra, len(recs)-short, s, l)
	}
}

// TestHotPathZeroAllocs asserts that a steady-state branch allocates
// nothing — on the fused Lookup/UpdateWith path and on the plain
// Predict/Update fallback — for every gated predictor (EV8 and the
// 2Bc-gskew presets), with attribution collection off and on
// (docs/OBSERVABILITY.md: no allocation in either state). A single heap
// escape on this path costs more than the prediction itself; this is the
// acceptance gate that keeps it out.
func TestHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	for _, c := range hotbench.Cases() {
		if !c.Gated {
			continue
		}
		events, err := hotbench.Collect(c.Mode, "gcc", hotEvents)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c.Name, func(t *testing.T) {
			p, err := c.New()
			if err != nil {
				t.Fatal(err)
			}
			fp, ok := p.(predictor.FusedPredictor)
			if !ok {
				t.Fatalf("%s: gated predictor does not implement FusedPredictor", c.Name)
			}
			ip, ok := p.(stats.Instrumented)
			if !ok {
				t.Fatalf("%s: gated predictor does not implement stats.Instrumented", c.Name)
			}
			for _, collect := range []bool{false, true} {
				ip.EnableStats(collect)
				// Warm once so any lazy one-time work is done before counting.
				hotbench.ReplayFused(fp, events)
				if allocs := testing.AllocsPerRun(3, func() {
					hotbench.ReplayFused(fp, events)
				}); allocs != 0 {
					t.Errorf("%s fused path (collect=%v): %.1f allocs per %d branches, want 0",
						c.Name, collect, allocs, len(events))
				}
				if allocs := testing.AllocsPerRun(3, func() {
					hotbench.ReplayUnfused(p, events)
				}); allocs != 0 {
					t.Errorf("%s unfused path (collect=%v): %.1f allocs per %d branches, want 0",
						c.Name, collect, allocs, len(events))
				}
			}
		})
	}
}

// TestDelayedUpdateZeroAllocsSteadyState gates the scalar commit-delay
// queue (BatchOff; the delayed batch path has its own gate,
// TestDelayedBatchZeroAllocsSteadyState): with UpdateDelay > 0 the pending
// updates must live in the fixed ring sim.Run allocates once, not in a
// slice that grows as queue[1:] pops retain the backing array. A full
// sim.Run carries constant setup cost
// (predictor tables, tracker, the ring itself), so the gate compares
// whole-run allocation counts at two stream lengths
// (checkSteadyStateAllocs).
func TestDelayedUpdateZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	prof, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ev8pred.NewWorkload(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	branches, err := trace.Collect(g, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) < 4096 {
		t.Fatalf("collected only %d branches", len(branches))
	}

	checkSteadyStateAllocs(t, "delayed-update path", branches, 1024, func(recs []ev8pred.Branch) {
		p := ev8pred.NewEV8()
		_, err := ev8pred.Run(p, trace.NewSlice(recs), ev8pred.Options{
			Mode:        ev8pred.ModeEV8(),
			UpdateDelay: 64,
			Batch:       ev8pred.BatchOff,
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestBatchKernelZeroAllocs gates the kernels themselves: a staged-replay
// pass through LookupBatch/UpdateBatch must not allocate for any
// Batch-marked roster entry.
func TestBatchKernelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	for _, c := range hotbench.Cases() {
		if !c.Batch {
			continue
		}
		events, err := hotbench.Collect(c.Mode, "gcc", hotEvents)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c.Name, func(t *testing.T) {
			p, err := c.New()
			if err != nil {
				t.Fatal(err)
			}
			bp, ok := p.(predictor.BatchPredictor)
			if !ok {
				t.Fatalf("%s: Batch-marked predictor does not implement BatchPredictor", c.Name)
			}
			run := hotbench.NewBatchRun(events, 0)
			run.Replay(bp) // warm once before counting
			if allocs := testing.AllocsPerRun(3, func() {
				run.Replay(bp)
			}); allocs != 0 {
				t.Errorf("%s batch kernels: %.1f allocs per %d branches, want 0",
					c.Name, allocs, run.Len())
			}
		})
	}
}

// BenchmarkPredictUpdate measures raw per-branch predictor cost: one
// sub-benchmark per roster entry, replaying prerecorded gcc events through
// the scalar per-branch path (fused when available) that sim.Run takes
// under BatchOff; BenchmarkPredictUpdateBatch measures the batch kernel
// default runs take. ns/op is per branch; docs/PERFORMANCE.md's History
// table has earlier figures.
func BenchmarkPredictUpdate(b *testing.B) {
	for _, c := range hotbench.Cases() {
		events, err := hotbench.Collect(c.Mode, "gcc", hotEvents)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name, func(b *testing.B) {
			p, err := c.New()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += len(events) {
				n := len(events)
				if rem := b.N - done; rem < n {
					n = rem
				}
				hotbench.Replay(p, events[:n])
			}
		})
	}
}

// BenchmarkPredictUpdateBatch is the batch-kernel twin: the same events
// pre-staged into SoA chunks, replayed through LookupBatch/UpdateBatch.
// ns/op is per branch; the ratio to BenchmarkPredictUpdate's matching
// entry is the kernel speedup.
func BenchmarkPredictUpdateBatch(b *testing.B) {
	for _, c := range hotbench.Cases() {
		if !c.Batch {
			continue
		}
		events, err := hotbench.Collect(c.Mode, "gcc", hotEvents)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name, func(b *testing.B) {
			p, err := c.New()
			if err != nil {
				b.Fatal(err)
			}
			bp, ok := p.(predictor.BatchPredictor)
			if !ok {
				b.Fatalf("%s does not implement BatchPredictor", c.Name)
			}
			run := hotbench.NewBatchRun(events, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += run.Len() {
				run.Replay(bp)
			}
		})
	}
}
