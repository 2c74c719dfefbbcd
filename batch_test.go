package ev8pred_test

// Differential suite for the batch kernel (docs/PERFORMANCE.md, "Batch
// kernel"): Options.Batch is a schedule knob, never a result knob, so for
// every BatchPredictor family, every benchmark, every update delay and
// both Collect settings, a run with BatchAuto must produce byte-identical
// Results — Stats included — to the same run forced onto the scalar path
// with BatchOff. At delay > 0 BatchAuto takes the lagged resolve
// (UpdateBatchLagged); delayed_batch_test.go crosses it with longer
// delays, stop points, ensembles and checkpoints.

import (
	"reflect"
	"testing"

	"ev8pred"
	"ev8pred/internal/predictor"
	"ev8pred/internal/trace"
)

type batchCase struct {
	name string
	make func() (ev8pred.Predictor, error)
}

// batchRoster lists every predictor family implementing BatchPredictor,
// covering both 2Bc-gskew update policies and both e-gskew policies.
func batchRoster() []batchCase {
	total512 := ev8pred.Config512K()
	total512.PartialUpdate = false
	total512.Name = "2bcg-512K-total"
	return []batchCase{
		{"2bcg-512K", func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.Config512K()) }},
		{"2bcg-512K-total", func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(total512) }},
		{"2bcg-ev8size", func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.ConfigEV8Size()) }},
		{"egskew-partial", func() (ev8pred.Predictor, error) { return ev8pred.NewEGskew(8192, 13, true) }},
		{"egskew-total", func() (ev8pred.Predictor, error) { return ev8pred.NewEGskew(8192, 13, false) }},
		{"gshare", func() (ev8pred.Predictor, error) { return ev8pred.NewGshare(1<<16, 16) }},
	}
}

// equalResult compares two Results byte for byte: the comparable core, and
// the attribution counters by value (the Stats pointers themselves always
// differ between independent runs).
func equalResult(a, b ev8pred.Result) bool {
	sa, sb := a.Stats, b.Stats
	a.Stats, b.Stats = nil, nil
	if a != b {
		return false
	}
	if (sa == nil) != (sb == nil) {
		return false
	}
	return sa == nil || reflect.DeepEqual(*sa, *sb)
}

// runBatchPair runs one cold predictor per path — BatchAuto and BatchOff —
// over the same benchmark and returns both Results.
func runBatchPair(t *testing.T, tc batchCase, bench string, instr int64, opts ev8pred.Options) (auto, off ev8pred.Result) {
	t.Helper()
	prof, err := ev8pred.BenchmarkByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode ev8pred.BatchMode) ev8pred.Result {
		p, err := tc.make()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.(predictor.BatchPredictor); !ok {
			t.Fatalf("%s does not implement BatchPredictor", tc.name)
		}
		o := opts
		o.Batch = mode
		r, err := ev8pred.RunBenchmark(p, prof, instr, o)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	return run(ev8pred.BatchAuto), run(ev8pred.BatchOff)
}

// TestBatchScalarEquivalent is the full matrix: every batch family, every
// benchmark, delays {0, 1, 8}, Collect on and off.
func TestBatchScalarEquivalent(t *testing.T) {
	for _, tc := range batchRoster() {
		t.Run(tc.name, func(t *testing.T) {
			for _, prof := range ev8pred.Benchmarks() {
				for _, delay := range []int{0, 1, 8} {
					for _, collect := range []bool{false, true} {
						opts := ev8pred.Options{
							Mode:        ev8pred.ModeGhist(),
							UpdateDelay: delay,
							Collect:     collect,
						}
						auto, off := runBatchPair(t, tc, prof.Name, 50_000, opts)
						if !equalResult(auto, off) {
							t.Errorf("%s delay=%d collect=%v: batch %+v != scalar %+v",
								prof.Name, delay, collect, auto, off)
						}
						if auto.Branches == 0 {
							t.Errorf("%s delay=%d: degenerate run (0 branches)", prof.Name, delay)
						}
						if collect && auto.Stats == nil {
							t.Errorf("%s delay=%d: Collect run returned no Stats", prof.Name, delay)
						}
					}
				}
			}
		})
	}
}

// TestBatchWarmupEquivalent pins the warmup lane masking: warmup
// boundaries that land mid-chunk and mid-word must gate exactly the same
// branches as the per-branch schedule's comparison.
func TestBatchWarmupEquivalent(t *testing.T) {
	tc := batchRoster()[0]
	for _, warmup := range []int64{1, 63, 64, 1000, 1025, 5000} {
		opts := ev8pred.Options{Mode: ev8pred.ModeGhist(), Warmup: warmup}
		auto, off := runBatchPair(t, tc, "gcc", 100_000, opts)
		if !equalResult(auto, off) {
			t.Errorf("warmup=%d: batch %+v != scalar %+v", warmup, auto, off)
		}
	}
}

// TestBatchMaxBranchesEquivalent pins the fill sizing: stopping at a
// branch budget that lands mid-chunk must measure the same branches (and
// consume the same records — checked separately by the checkpoint test).
func TestBatchMaxBranchesEquivalent(t *testing.T) {
	tc := batchRoster()[0]
	for _, max := range []int64{1, 100, 1023, 1024, 1500, 4096} {
		opts := ev8pred.Options{Mode: ev8pred.ModeGhist(), MaxBranches: max}
		auto, off := runBatchPair(t, tc, "go", 10_000_000, opts)
		if !equalResult(auto, off) {
			t.Errorf("max=%d: batch %+v != scalar %+v", max, auto, off)
		}
		if auto.Branches != max {
			t.Errorf("max=%d: run measured %d branches", max, auto.Branches)
		}
	}
}

// TestEnsembleBatchScalarEquivalent covers the ensemble twin with a mixed
// roster — batch-capable members ride the kernels, the bimodal control
// rides the per-branch replay — against BatchOff and per-cell Run.
func TestEnsembleBatchScalarEquivalent(t *testing.T) {
	factories := []ev8pred.Factory{
		func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.Config512K()) },
		func() (ev8pred.Predictor, error) { return ev8pred.NewEGskew(8192, 13, true) },
		func() (ev8pred.Predictor, error) { return ev8pred.NewGshare(1<<16, 16) },
		func() (ev8pred.Predictor, error) { return ev8pred.NewBimodal(1 << 14) },
	}
	for _, bench := range []string{"gcc", "li"} {
		for _, collect := range []bool{false, true} {
			prof, err := ev8pred.BenchmarkByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			runEns := func(mode ev8pred.BatchMode) []ev8pred.Result {
				opts := ev8pred.Options{Mode: ev8pred.ModeGhist(), Collect: collect, Batch: mode}
				rs, err := ev8pred.RunEnsembleBenchmark(factories, prof, 200_000, opts)
				if err != nil {
					t.Fatal(err)
				}
				return rs
			}
			auto, off := runEns(ev8pred.BatchAuto), runEns(ev8pred.BatchOff)
			for k := range factories {
				if !equalResult(auto[k], off[k]) {
					t.Errorf("%s collect=%v member %d: batch %+v != scalar %+v",
						bench, collect, k, auto[k], off[k])
				}
				// And both must equal an independent per-cell Run.
				p, err := factories[k]()
				if err != nil {
					t.Fatal(err)
				}
				solo, err := ev8pred.RunBenchmark(p, prof, 200_000,
					ev8pred.Options{Mode: ev8pred.ModeGhist(), Collect: collect})
				if err != nil {
					t.Fatal(err)
				}
				if !equalResult(auto[k], solo) {
					t.Errorf("%s collect=%v member %d: ensemble batch %+v != solo %+v",
						bench, collect, k, auto[k], solo)
				}
			}
		}
	}
}

// TestBatchCheckpointEquivalent pins record-consumption parity: a
// checkpoint captured through the batch path must match one captured on
// the scalar path exactly (same Records, same serialized state), and
// resuming across the path boundary must reproduce the uninterrupted run.
func TestBatchCheckpointEquivalent(t *testing.T) {
	prof, err := ev8pred.BenchmarkByName("ijpeg")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ev8pred.NewWorkload(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	records := trace.Collect(g, 30_000)
	const stop = 7_777 // mid-chunk, mid-word
	capture := func(mode ev8pred.BatchMode) (ev8pred.Result, *ev8pred.Checkpoint) {
		p, err := ev8pred.New2BcGskew(ev8pred.Config512K())
		if err != nil {
			t.Fatal(err)
		}
		opts := ev8pred.Options{Mode: ev8pred.ModeGhist(), MaxBranches: stop, Batch: mode}
		r, ck, err := ev8pred.RunCheckpoint(p, trace.NewSlice(records), opts)
		if err != nil {
			t.Fatal(err)
		}
		return r, ck
	}
	rAuto, ckAuto := capture(ev8pred.BatchAuto)
	rOff, ckOff := capture(ev8pred.BatchOff)
	if !equalResult(rAuto, rOff) {
		t.Fatalf("checkpoint-run results diverge: %+v vs %+v", rAuto, rOff)
	}
	if ckAuto.Records != ckOff.Records {
		t.Fatalf("record consumption diverges: batch stopped at %d, scalar at %d",
			ckAuto.Records, ckOff.Records)
	}

	// Straight-through reference run.
	p, err := ev8pred.New2BcGskew(ev8pred.Config512K())
	if err != nil {
		t.Fatal(err)
	}
	full, err := ev8pred.Run(p, trace.NewSlice(records), ev8pred.Options{Mode: ev8pred.ModeGhist()})
	if err != nil {
		t.Fatal(err)
	}
	// Resume the batch-captured checkpoint onto the scalar path and vice
	// versa: crossing the boundary must still reproduce the full run.
	resume := func(ck *ev8pred.Checkpoint, mode ev8pred.BatchMode) ev8pred.Result {
		q, err := ev8pred.New2BcGskew(ev8pred.Config512K())
		if err != nil {
			t.Fatal(err)
		}
		src := trace.NewSlice(records)
		if err := ev8pred.SkipRecords(src, ck.Records); err != nil {
			t.Fatal(err)
		}
		r, err := ev8pred.ResumeFrom(q, src, ev8pred.Options{Mode: ev8pred.ModeGhist(), Batch: mode}, ck)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if got := resume(ckAuto, ev8pred.BatchOff); !equalResult(got, full) {
		t.Errorf("batch checkpoint + scalar resume %+v != full run %+v", got, full)
	}
	if got := resume(ckOff, ev8pred.BatchAuto); !equalResult(got, full) {
		t.Errorf("scalar checkpoint + batch resume %+v != full run %+v", got, full)
	}
}

// TestBatchZeroAllocsSteadyState gates the allocation discipline of the
// batch paths: whole-run allocation counts at two stream lengths must be
// equal — all scratch (chunk buffers, snapshot arrays, bitsets) is
// per-run, never per-chunk or per-branch.
func TestBatchZeroAllocsSteadyState(t *testing.T) {
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
	records := trace.Collect(g, 16384)
	if len(records) < 16384 {
		t.Fatalf("collected only %d records", len(records))
	}

	t.Run("run", func(t *testing.T) {
		checkSteadyStateAllocs(t, "batch run loop", records, 4096, func(recs []ev8pred.Branch) {
			p, err := ev8pred.New2BcGskew(ev8pred.Config512K())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ev8pred.Run(p, trace.NewSlice(recs),
				ev8pred.Options{Mode: ev8pred.ModeGhist()}); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("ensemble", func(t *testing.T) {
		checkSteadyStateAllocs(t, "ensemble batch loop", records, 4096, func(recs []ev8pred.Branch) {
			factories := []ev8pred.Factory{
				func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.Config512K()) },
				func() (ev8pred.Predictor, error) { return ev8pred.NewGshare(1<<16, 16) },
				func() (ev8pred.Predictor, error) { return ev8pred.NewBimodal(1 << 14) },
			}
			_, err := ev8pred.RunEnsemble(factories, trace.NewSlice(recs), ev8pred.Options{
				Mode: ev8pred.ModeGhist(),
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	})
}
