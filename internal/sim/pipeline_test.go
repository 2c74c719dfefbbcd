package sim

import (
	"context"
	"errors"
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
// runs solo through Run, several as one RunEnsemble.
func runStream(t *testing.T, factories []Factory, prof workload.Profile, opts Options, pipelined bool) ([]Result, *workload.Generator) {
	t.Helper()
	g, err := workload.New(prof, pipelineInstr)
	if err != nil {
		t.Fatal(err)
	}
	src, stop := stream(context.Background(), g, opts.MaxBranches, pipelined)
	defer stop()
	if len(factories) > 1 {
		rs, err := RunEnsemble(factories, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rs, g
	}
	p, err := factories[0]()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(p, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return []Result{r}, g
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
			s, stop := stream(ctx, src, 0, true)
			var err error
			if len(factories) > 1 {
				_, err = RunEnsemble(factories, s, Options{Batch: batch})
			} else {
				p, _ := factories[0]()
				_, err = Run(p, s, Options{Batch: batch})
			}
			stop()
			cancel()
			if !errors.Is(err, ErrCanceled) {
				t.Errorf("%d members, batch=%v: err = %v, want ErrCanceled", len(factories), batch, err)
			}
		}
	}
	waitGoroutines(t, baseline)
}

// panicSource is a batch source whose second fill panics.
type panicSource struct{ fills int }

func (s *panicSource) NextBatch(dst []trace.Branch) (int, error) {
	if s.fills++; s.fills > 1 {
		panic("source exploded")
	}
	for i := range dst {
		dst[i] = trace.Branch{PC: 0x1000, Target: 0x1000, Taken: true}
	}
	return len(dst), nil
}

// runPanicking runs gshare over a pipelined panicSource.
func runPanicking() (Result, error) {
	s, stop := stream(context.Background(), &panicSource{}, 0, true)
	defer stop()
	p, _ := gshareFactories(1)[0]()
	return Run(p, s, Options{})
}

// TestPipelinePanicSurfacesInCaller: a panic in the producer goroutine is
// re-raised in the goroutine that consumes the stream — a direct call
// panics with the source's value, a pool job fails with "job panicked" —
// and the producer does not outlive the call.
func TestPipelinePanicSurfacesInCaller(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		defer func() {
			if r := recover(); r != "source exploded" {
				t.Errorf("recovered %v, want the source's panic", r)
			}
		}()
		runPanicking()
		t.Error("direct call returned instead of panicking")
	}()
	for _, workers := range []int{1, 2} {
		jobs := []func(context.Context) (Result, error){
			func(context.Context) (Result, error) { return runPanicking() },
			func(context.Context) (Result, error) { return runPanicking() },
		}
		_, err := Parallel(context.Background(), workers, jobs)
		if err == nil || !strings.Contains(err.Error(), "job") || !strings.Contains(err.Error(), "panicked") ||
			!strings.Contains(err.Error(), "source exploded") {
			t.Errorf("workers=%d: err = %v, want a job panicked error", workers, err)
		}
	}
	waitGoroutines(t, baseline)
}

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
	s, stop := stream(context.Background(), trace.NewSlice(bad), 0, true)
	p, _ := gshareFactories(1)[0]()
	_, err := Run(p, s, Options{})
	stop()
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
// fixed set-up (buffers, channels, the producer) and do not grow with the
// branch budget.
func TestPipelineAllocsSteadyState(t *testing.T) {
	prof := benchProfiles(t, "gcc")[0]
	p, err := core.New(core.ConfigEV8Size())
	if err != nil {
		t.Fatal(err)
	}
	runAllocs := func(budget int64) float64 {
		return testing.AllocsPerRun(5, func() {
			g := workload.MustNew(prof, 0)
			s, stop := stream(context.Background(), g, budget, true)
			defer stop()
			if _, err := Run(p, s, Options{MaxBranches: budget}); err != nil {
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
