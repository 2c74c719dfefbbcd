package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ev8pred/internal/core"
	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// pipelineInstr keeps every pipeline test stream a few chunks long, so
// fills, hand-offs and budgets cross chunk boundaries, while staying
// cheap under the race detector.
const pipelineInstr = 40_000

// midChunkBudget stops a pipelineInstr stream inside its third chunk.
const midChunkBudget = 2_500

// runStream simulates factories over a fresh generator for prof, through
// the pipeline or directly, and returns the results together with the
// generator so the caller can check where the stream stopped. One factory
// runs solo, several as one ensemble.
func runStream(t *testing.T, factories []Factory, prof workload.Profile, opts Options, pipelined bool) ([]Result, *workload.Generator) {
	t.Helper()
	g, err := workload.New(prof, pipelineInstr)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := runFactories(factories, g, opts, pipelined)
	if err != nil {
		t.Fatal(err)
	}
	return rs, g
}

// runFactories simulates factories over src, through the pipeline or
// directly: one factory solo through the engine of Run, several as one
// ensemble.
func runFactories(factories []Factory, src trace.Source, opts Options, pipelined bool) ([]Result, error) {
	if len(factories) > 1 {
		return runEnsemble(factories, src, opts, pipelined)
	}
	p, err := factories[0]()
	if err != nil {
		return nil, err
	}
	r, _, err := run(p, src, opts, pipelined, nil, false)
	return []Result{r}, err
}

// waitGoroutines fails the test unless the goroutine count falls back to
// baseline (the runtime retires exiting goroutines asynchronously).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineMatchesDirect is the pipeline's exactness contract: for the
// EV8, 2Bc-gskew and gshare, solo and as one ensemble, over every
// benchmark, under both batch schedules, at update delays 0 and 8, and
// with and without a branch budget that ends mid-chunk, the pipelined run
// returns the direct run's Results and attribution counters and leaves
// the generator at the same record.
func TestPipelineMatchesDirect(t *testing.T) {
	ev8f := func() (predictor.Predictor, error) { return ev8.New(ev8.DefaultConfig()) }
	bcgf := func() (predictor.Predictor, error) { return core.New(core.ConfigEV8Size()) }
	gsharef := func() (predictor.Predictor, error) { return gshare.New(1<<14, 12) }
	cases := []struct {
		name      string
		factories []Factory
		mode      frontend.Mode
	}{
		{"ev8", []Factory{ev8f}, frontend.ModeEV8()},
		{"2bcg", []Factory{bcgf}, frontend.ModeGhist()},
		{"gshare", []Factory{gsharef}, frontend.ModeGhist()},
		{"ensemble", []Factory{ev8f, bcgf, gsharef}, frontend.ModeEV8()},
	}
	baseline := runtime.NumGoroutine()
	for _, prof := range workload.Benchmarks() {
		for _, c := range cases {
			for _, batch := range []BatchMode{BatchAuto, BatchOff} {
				for _, delay := range []int{0, 8} {
					for _, budget := range []int64{0, midChunkBudget} {
						opts := Options{Mode: c.mode, Batch: batch, UpdateDelay: delay, MaxBranches: budget, Collect: true}
						direct, dg := runStream(t, c.factories, prof, opts, false)
						piped, pg := runStream(t, c.factories, prof, opts, true)
						if !reflect.DeepEqual(piped, direct) {
							t.Errorf("%s/%s batch=%v delay=%d budget=%d: pipelined %+v, direct %+v",
								c.name, prof.Name, batch, delay, budget, piped, direct)
						}
						db, dok := next(dg)
						pb, pok := next(pg)
						if db != pb || dok != pok {
							t.Errorf("%s/%s batch=%v delay=%d budget=%d: generator left at %+v/%v, direct at %+v/%v",
								c.name, prof.Name, batch, delay, budget, pb, pok, db, dok)
						}
					}
				}
			}
		}
	}
	waitGoroutines(t, baseline)
}

// cancelAfter is a batched generator that cancels its context once it has
// delivered limit records, so a run is canceled mid-stream at a
// deterministic point.
type cancelAfter struct {
	*workload.Generator
	limit  int
	cancel context.CancelFunc
}

func (c *cancelAfter) NextBatch(dst []trace.Branch) (int, error) {
	n, err := c.Generator.NextBatch(dst)
	if c.limit -= n; c.limit <= 0 {
		c.cancel()
	}
	return n, err
}

// TestPipelineCancelMidStream: canceling the context mid-stream ends a
// pipelined run, solo or ensemble, with an error wrapping ErrCanceled,
// and the producer exits.
func TestPipelineCancelMidStream(t *testing.T) {
	prof := benchProfiles(t, "gcc")[0]
	baseline := runtime.NumGoroutine()
	for _, factories := range [][]Factory{gshareFactories(1), gshareFactories(3)} {
		for _, batch := range []BatchMode{BatchAuto, BatchOff} {
			ctx, cancel := context.WithCancel(context.Background())
			src := &cancelAfter{Generator: workload.MustNew(prof, 0), limit: 5000, cancel: cancel}
			_, err := runFactories(factories, sourceWithCancel(ctx, src), Options{Batch: batch}, true)
			cancel()
			if !errors.Is(err, ErrCanceled) {
				t.Errorf("%d members, batch=%v: err = %v, want ErrCanceled", len(factories), batch, err)
			}
		}
	}
	waitGoroutines(t, baseline)
}

// panicSource is a batch source whose fill number at panics.
type panicSource struct{ at, fills int }

func (s *panicSource) NextBatch(dst []trace.Branch) (int, error) {
	if s.fills++; s.fills >= s.at {
		panic("source exploded")
	}
	for i := range dst {
		dst[i] = trace.Branch{PC: 0x1000, Target: 0x1000, Taken: true}
	}
	return len(dst), nil
}

// runPanicking runs gshare over a pipelined panicSource that panics at
// its fill number at.
func runPanicking(at int) (Result, error) {
	p, _ := gshareFactories(1)[0]()
	r, _, err := run(p, &panicSource{at: at}, Options{}, true, nil, false)
	return r, err
}

// checkPanicSurfaces: a panic in the producer goroutine at fill number at
// is re-raised in the goroutine that consumes the stream — a direct call
// panics with the source's value, a pool job fails with "job panicked" —
// and the producer does not outlive the call.
func checkPanicSurfaces(t *testing.T, at int) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	func() {
		defer func() {
			if r := recover(); r != "source exploded" {
				t.Errorf("fill %d: recovered %v, want the source's panic", at, r)
			}
		}()
		runPanicking(at)
		t.Errorf("fill %d: direct call returned instead of panicking", at)
	}()
	for _, workers := range []int{1, 2} {
		jobs := []func(context.Context) (Result, error){
			func(context.Context) (Result, error) { return runPanicking(at) },
			func(context.Context) (Result, error) { return runPanicking(at) },
		}
		_, err := Parallel(context.Background(), workers, jobs)
		if err == nil || !strings.Contains(err.Error(), "job") || !strings.Contains(err.Error(), "panicked") ||
			!strings.Contains(err.Error(), "source exploded") {
			t.Errorf("fill %d, workers=%d: err = %v, want a job panicked error", at, workers, err)
		}
	}
	waitGoroutines(t, baseline)
}

// TestPipelinePanicSurfacesInCaller: a panic at the producer's second
// fill, with the first chunk handed over, surfaces in the caller.
func TestPipelinePanicSurfacesInCaller(t *testing.T) { checkPanicSurfaces(t, 2) }

// TestPipelineWalkPanicSurfacesInCaller: a producer panic chunks into the
// stream, at its third fill, surfaces in the caller too.
func TestPipelineWalkPanicSurfacesInCaller(t *testing.T) { checkPanicSurfaces(t, 3) }

// TestPipelineNoGoroutineLeak: after a pipelined run succeeds, fails with
// an error, or stops early under a branch budget, the goroutine count is
// back at its baseline.
func TestPipelineNoGoroutineLeak(t *testing.T) {
	prof := benchProfiles(t, "li")[0]
	baseline := runtime.NumGoroutine()
	for _, budget := range []int64{0, midChunkBudget} {
		runStream(t, gshareFactories(1), prof, Options{MaxBranches: budget}, true)
		runStream(t, gshareFactories(2), prof, Options{MaxBranches: budget}, true)
	}
	// A negative thread id aborts the run with an error while the producer
	// may still be filling.
	bad := make([]trace.Branch, 3*batchChunk)
	for i := range bad {
		bad[i] = trace.Branch{PC: 0x1000, Target: 0x1000, Taken: true, Thread: -1}
	}
	_, err := runFactories(gshareFactories(1), trace.NewSlice(bad), Options{}, true)
	if err == nil {
		t.Error("negative thread id accepted")
	}
	waitGoroutines(t, baseline)
}

// TestPipelineEngagement: the simulator-built streams pipeline when a CPU
// is spare and never inside a pool job, whose fan-out already fills the
// CPUs (and whose Workers: 1 path is the serial debugging path).
func TestPipelineEngagement(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if !pipelining() {
		t.Error("GOMAXPROCS 2 outside the pool: not pipelined")
	}
	for _, workers := range []int{1, 2} {
		got, err := Parallel(context.Background(), workers, []func(context.Context) (bool, error){
			func(context.Context) (bool, error) { return pipelining(), nil },
			func(context.Context) (bool, error) { return pipelining(), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] || got[1] {
			t.Errorf("workers=%d: a pool job pipelined its stream", workers)
		}
	}
	runtime.GOMAXPROCS(1)
	if pipelining() {
		t.Error("GOMAXPROCS 1: pipelined without a spare CPU")
	}
}

// TestPipelineAllocsSteadyState: a pipelined run's allocations are the
// fixed set-up (the ring's chunks, channels, the producer) and do not
// grow with the branch budget.
func TestPipelineAllocsSteadyState(t *testing.T) {
	prof := benchProfiles(t, "gcc")[0]
	p, err := core.New(core.ConfigEV8Size())
	if err != nil {
		t.Fatal(err)
	}
	runAllocs := func(budget int64) float64 {
		return testing.AllocsPerRun(5, func() {
			g := workload.MustNew(prof, 0)
			if _, _, err := run(p, g, Options{MaxBranches: budget}, true, nil, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := runAllocs(2*batchChunk), runAllocs(40*batchChunk)
	if long > short {
		t.Errorf("pipelined run: %.1f allocs at %d branches, %.1f at %d, want no growth",
			short, 2*batchChunk, long, 40*batchChunk)
	}
}

// drainFeed walks src through a feed, pipelined or direct, and returns
// the records of its chunks, the terminal error, and the walker, which
// belongs to the caller again once the feed is stopped. It fails the test
// on a chunk that holds neither records nor an error, or on an abort.
func drainFeed(t *testing.T, src trace.Source, pipelined bool) ([]trace.Branch, error, *walker) {
	t.Helper()
	w := &walker{opts: &Options{}}
	f := w.start(src, pipelined)
	defer f.stop()
	var out []trace.Branch
	for {
		c := f.next()
		if c.abort != nil || (c.n == 0 && c.err == nil) {
			t.Fatalf("pipelined=%v: chunk (%d, %v, abort %v) after %d records", pipelined, c.n, c.err, c.abort, len(out))
		}
		out = append(out, c.buf[:c.n]...)
		if c.err != nil {
			return out, c.err, w
		}
	}
}

// TestPipelineChunkContract holds the pipeline's walked chunks to the
// source contract (TestSourceContract): pipelined and direct, the chunks
// deliver the source's records; every chunk holds records or an error; a
// clean stream ends in io.EOF, again on the next fill; and a canceled one
// ends in ErrCanceled, again, with no records, on the next fill, after
// records were delivered.
func TestPipelineChunkContract(t *testing.T) {
	const budget = 60_000
	li := benchProfiles(t, "li")[0]
	gen := func() *workload.Generator { return workload.MustNew(li, budget) }
	records, err := trace.Collect(gen(), 0)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	t.Run("pipe", func(t *testing.T) {
		for _, pipelined := range []bool{true, false} {
			got, err, w := drainFeed(t, gen(), pipelined)
			if err != io.EOF {
				t.Fatalf("pipelined=%v: stream ended with %v, want io.EOF", pipelined, err)
			}
			c := newChunk()
			if w.fill(c); c.n != 0 || c.err != io.EOF {
				t.Errorf("pipelined=%v: fill after the end = (%d, %v), want (0, io.EOF)", pipelined, c.n, c.err)
			}
			if !reflect.DeepEqual(got, records) {
				t.Fatalf("pipelined=%v: %d records differ from the source's %d", pipelined, len(got), len(records))
			}
		}
	})
	t.Run("canceled pipe", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		got, err, w := drainFeed(t, sourceWithCancel(ctx, &cancelAfter{Generator: gen(), limit: 5000, cancel: cancel}), true)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("stream ended with %v, want ErrCanceled", err)
		}
		c := newChunk()
		if w.fill(c); c.n != 0 || c.err != err {
			t.Errorf("fill after the failure = (%d, %v), want (0, %v)", c.n, c.err, err)
		}
		if len(got) == 0 {
			t.Error("no records before the failure")
		}
	})
	waitGoroutines(t, baseline)
}

// TestPipelineFlowBreakMatchesDirect: a record that breaks its thread's
// flow in the middle of the third chunk fails a pipelined run, solo and
// ensemble, under both batch schedules, with the direct run's error: the
// same text, naming the same stream record.
func TestPipelineFlowBreakMatchesDirect(t *testing.T) {
	recs, err := trace.Collect(workload.MustNew(benchProfiles(t, "gcc")[0], pipelineInstr), 3*batchChunk)
	if err != nil {
		t.Fatal(err)
	}
	const at = 2*batchChunk + 300
	recs[at].PC += 0x10_0000
	baseline := runtime.NumGoroutine()
	ev8f := func() (predictor.Predictor, error) { return ev8.New(ev8.DefaultConfig()) }
	for _, factories := range [][]Factory{{ev8f}, {ev8f, ev8f}} {
		for _, batch := range []BatchMode{BatchAuto, BatchOff} {
			opts := Options{Mode: frontend.ModeEV8(), Batch: batch, UpdateDelay: 8}
			_, direct := runFactories(factories, trace.NewSlice(recs), opts, false)
			_, piped := runFactories(factories, trace.NewSlice(recs), opts, true)
			if !errors.Is(direct, frontend.ErrFlow) || !strings.Contains(direct.Error(), fmt.Sprintf("stream record %d:", at)) {
				t.Fatalf("%d members, batch=%v: direct err = %v, want a flow break at record %d", len(factories), batch, direct, at)
			}
			if piped == nil || piped.Error() != direct.Error() {
				t.Errorf("%d members, batch=%v: pipelined err = %v, direct %v", len(factories), batch, piped, direct)
			}
		}
	}
	waitGoroutines(t, baseline)
}

// TestPipelineInterleavedMatchesDirect: over a two-thread SMT stream
// (workload.Interleaved), whose chunks walk runs of both threads through
// two trackers, the pipelined run returns the direct run's Results and
// attribution counters, the EV8 solo and in an ensemble with 2Bc-gskew,
// under both batch schedules and at update delays 0 and 8.
func TestPipelineInterleavedMatchesDirect(t *testing.T) {
	li, perl := benchProfiles(t, "li")[0], benchProfiles(t, "perl")[0]
	ev8f := func() (predictor.Predictor, error) { return ev8.New(ev8.DefaultConfig()) }
	bcgf := func() (predictor.Predictor, error) { return core.New(core.ConfigEV8Size()) }
	smt := func() trace.Source {
		return workload.NewInterleaved([]trace.Source{
			workload.MustNew(li, pipelineInstr), workload.MustNew(perl, pipelineInstr),
		}, 300)
	}
	baseline := runtime.NumGoroutine()
	for _, factories := range [][]Factory{{ev8f}, {ev8f, bcgf}} {
		for _, batch := range []BatchMode{BatchAuto, BatchOff} {
			for _, delay := range []int{0, 8} {
				opts := Options{Mode: frontend.ModeEV8(), Batch: batch, UpdateDelay: delay, Collect: true}
				direct, err := runFactories(factories, smt(), opts, false)
				if err != nil {
					t.Fatal(err)
				}
				piped, err := runFactories(factories, smt(), opts, true)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(piped, direct) {
					t.Errorf("%d members, batch=%v, delay=%d: pipelined %+v, direct %+v", len(factories), batch, delay, piped, direct)
				}
			}
		}
	}
	waitGoroutines(t, baseline)
}
