package ev8pred_test

// Differential suite for the delayed batch path (docs/PERFORMANCE.md,
// "Batch kernel"): under commit delay the batch kernel resolves each
// chunk lagged behind the pending updates it retires, and the pending
// updates live in the same ring the per-branch schedule uses between
// chunks. So a delayed run with BatchAuto must equal the same run forced
// per branch with
// BatchOff byte for byte — Result, attribution Stats, final predictor
// state and checkpoints (the pending ring included) — for every batch
// family, solo and in ensembles, at delays shorter and longer than a
// chunk, with warmup and branch budgets that stop mid-chunk and mid-word.

import (
	"bytes"
	"fmt"
	"testing"

	"ev8pred"
	"ev8pred/internal/predictor"
	"ev8pred/internal/trace"
)

// delayedBatchDelays spans one branch, the benchmark's delay, the
// ablations' delay, and a delay longer than a 1024-record chunk.
var delayedBatchDelays = []int{1, 8, 64, 1500}

// delayedShapes are the stop conditions crossed with every delay: a full
// run, a warmup boundary mid-chunk and mid-word, a branch budget mid-chunk
// and mid-word, and both at once.
var delayedShapes = []struct {
	name        string
	warmup, max int64
}{
	{"full", 0, 0},
	{"warmup", 1025, 0},
	{"max", 0, 4097},
	{"warmup+max", 63, 3001},
}

// delayedRosters pairs each differential roster with its front-end mode:
// the EV8-mode roster (EV8 both wordlines, the EV8-size 2Bc-gskew, and the
// non-batch cascade) and the batch families under conventional ghist.
func delayedRosters() []struct {
	mode  ev8pred.Mode
	cases []batchCase
} {
	var ev8Cases []batchCase
	for _, c := range ev8BatchRoster() {
		ev8Cases = append(ev8Cases, batchCase{c.name, c.make})
	}
	return []struct {
		mode  ev8pred.Mode
		cases []batchCase
	}{
		{ev8pred.ModeEV8(), ev8Cases},
		{ev8pred.ModeGhist(), batchRoster()},
	}
}

// collectRecords materializes a benchmark stream so both schedules run
// over the same records.
func collectRecords(t *testing.T, bench string, n int) []ev8pred.Branch {
	t.Helper()
	prof, err := ev8pred.BenchmarkByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ev8pred.NewWorkload(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Collect(g, n)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// stateOf returns the predictor's serialized state, or nil for predictors
// without the Snapshotter contract.
func stateOf(p ev8pred.Predictor) []byte {
	if sp, ok := p.(predictor.Snapshotter); ok {
		return sp.SnapshotState()
	}
	return nil
}

// TestDelayedBatchScalarEquivalent is the solo matrix: every roster
// entry × delay × Collect × stop shape, BatchAuto against BatchOff, on
// Result and on final predictor state.
func TestDelayedBatchScalarEquivalent(t *testing.T) {
	records := collectRecords(t, "gcc", 40_000)
	for _, r := range delayedRosters() {
		for _, tc := range r.cases {
			t.Run(tc.name, func(t *testing.T) {
				for _, delay := range delayedBatchDelays {
					for _, collect := range []bool{false, true} {
						for _, sh := range delayedShapes {
							run := func(mode ev8pred.BatchMode) (ev8pred.Result, []byte) {
								p, err := tc.make()
								if err != nil {
									t.Fatal(err)
								}
								res, err := ev8pred.Run(p, trace.NewSlice(records), ev8pred.Options{
									Mode: r.mode, UpdateDelay: delay, Collect: collect,
									Warmup: sh.warmup, MaxBranches: sh.max, Batch: mode,
								})
								if err != nil {
									t.Fatal(err)
								}
								return res, stateOf(p)
							}
							auto, sAuto := run(ev8pred.BatchAuto)
							off, sOff := run(ev8pred.BatchOff)
							if !equalResult(auto, off) {
								t.Errorf("delay=%d collect=%v %s: batch %+v != scalar %+v",
									delay, collect, sh.name, auto, off)
							}
							if !bytes.Equal(sAuto, sOff) {
								t.Errorf("delay=%d collect=%v %s: predictor states diverge", delay, collect, sh.name)
							}
							if auto.Branches == 0 {
								t.Errorf("delay=%d %s: degenerate run (0 branches)", delay, sh.name)
							}
						}
					}
				}
			})
		}
	}
}

// TestDelayedEnsembleBatchScalarEquivalent is the ensemble twin: each
// roster as one ensemble (batch members on the lagged kernel, the
// non-batch cascade on the per-branch replay through its own ring) must
// equal the same ensemble forced scalar and each member's solo run.
func TestDelayedEnsembleBatchScalarEquivalent(t *testing.T) {
	records := collectRecords(t, "li", 40_000)
	for _, r := range delayedRosters() {
		factories := make([]ev8pred.Factory, len(r.cases))
		for i, c := range r.cases {
			factories[i] = c.make
		}
		for _, delay := range delayedBatchDelays {
			for _, collect := range []bool{false, true} {
				for _, sh := range delayedShapes {
					opts := ev8pred.Options{Mode: r.mode, UpdateDelay: delay, Collect: collect,
						Warmup: sh.warmup, MaxBranches: sh.max}
					runEns := func(mode ev8pred.BatchMode) []ev8pred.Result {
						o := opts
						o.Batch = mode
						rs, err := ev8pred.RunEnsemble(factories, trace.NewSlice(records), o)
						if err != nil {
							t.Fatal(err)
						}
						return rs
					}
					auto, off := runEns(ev8pred.BatchAuto), runEns(ev8pred.BatchOff)
					for k, tc := range r.cases {
						if !equalResult(auto[k], off[k]) {
							t.Errorf("%s delay=%d collect=%v %s: batch %+v != scalar %+v",
								tc.name, delay, collect, sh.name, auto[k], off[k])
						}
						p, err := tc.make()
						if err != nil {
							t.Fatal(err)
						}
						solo, err := ev8pred.Run(p, trace.NewSlice(records), opts)
						if err != nil {
							t.Fatal(err)
						}
						if !equalResult(auto[k], solo) {
							t.Errorf("%s delay=%d collect=%v %s: ensemble %+v != solo %+v",
								tc.name, delay, collect, sh.name, auto[k], solo)
						}
					}
				}
			}
		}
	}
}

// TestDelayedBatchCheckpointEquivalent pins the ring hand-off: a delayed
// checkpoint captured on the batch path must encode to exactly the bytes
// of one captured on the scalar path — pending updates, their complete
// snapshots and outcomes included — and resuming either one on either
// path must reproduce the uninterrupted run.
func TestDelayedBatchCheckpointEquivalent(t *testing.T) {
	records := collectRecords(t, "ijpeg", 30_000)
	const stop = 7_777 // mid-chunk, mid-word
	for _, tc := range resumeRoster() {
		t.Run(tc.name, func(t *testing.T) {
			for _, delay := range []int{8, 1500} {
				opts := ev8pred.Options{Mode: tc.mode, UpdateDelay: delay, Collect: true}
				capture := func(mode ev8pred.BatchMode) *ev8pred.Checkpoint {
					p, err := tc.make()
					if err != nil {
						t.Fatal(err)
					}
					o := opts
					o.MaxBranches, o.Batch = stop, mode
					_, ck, err := ev8pred.RunCheckpoint(p, trace.NewSlice(records), o)
					if err != nil {
						t.Fatal(err)
					}
					return ck
				}
				ckAuto, ckOff := capture(ev8pred.BatchAuto), capture(ev8pred.BatchOff)
				if len(ckAuto.Pending) != delay {
					t.Fatalf("delay=%d: checkpoint carries %d pending updates", delay, len(ckAuto.Pending))
				}
				bAuto, err := ckAuto.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				bOff, err := ckOff.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bAuto, bOff) {
					t.Fatalf("delay=%d: encoded checkpoints differ between batch and scalar capture", delay)
				}

				p, err := tc.make()
				if err != nil {
					t.Fatal(err)
				}
				full, err := ev8pred.Run(p, trace.NewSlice(records), opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []ev8pred.BatchMode{ev8pred.BatchAuto, ev8pred.BatchOff} {
					q, err := tc.make()
					if err != nil {
						t.Fatal(err)
					}
					src := trace.NewSlice(records)
					if err := ev8pred.SkipRecords(src, ckAuto.Records); err != nil {
						t.Fatal(err)
					}
					o := opts
					o.Batch = mode
					got, err := ev8pred.ResumeFrom(q, src, o, ckAuto)
					if err != nil {
						t.Fatal(err)
					}
					if !equalResult(got, full) {
						t.Errorf("delay=%d resume %v: %+v != full run %+v", delay, mode, got, full)
					}
				}
			}
		})
	}
}

// TestDelayedBatchOn pins that a delayed run is batch-eligible: the EV8
// carries the batched block contract the engine requires of a block
// observer, and a run under the default schedule succeeds at every delay,
// solo and in an ensemble, with the same Results as the per-branch
// reference.
func TestDelayedBatchOn(t *testing.T) {
	if _, ok := ev8pred.Predictor(ev8pred.NewEV8()).(predictor.BlockBatchObserver); !ok {
		t.Fatal("EV8 does not implement predictor.BlockBatchObserver")
	}
	records := collectRecords(t, "go", 5_000)
	factories := []ev8pred.Factory{
		func() (ev8pred.Predictor, error) { return ev8pred.NewEV8(), nil },
		func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.ConfigEV8Size()) },
	}
	for _, delay := range delayedBatchDelays {
		var solo, ens [2][]ev8pred.Result
		for i, mode := range []ev8pred.BatchMode{ev8pred.BatchAuto, ev8pred.BatchOff} {
			opts := ev8pred.Options{Mode: ev8pred.ModeEV8(), UpdateDelay: delay, Batch: mode}
			r, err := ev8pred.Run(ev8pred.NewEV8(), trace.NewSlice(records), opts)
			if err != nil {
				t.Fatalf("delay=%d batch=%d: solo run rejected: %v", delay, mode, err)
			}
			solo[i] = []ev8pred.Result{r}
			if ens[i], err = ev8pred.RunEnsemble(factories, trace.NewSlice(records), opts); err != nil {
				t.Fatalf("delay=%d batch=%d: ensemble run rejected: %v", delay, mode, err)
			}
		}
		for _, pair := range [][2][]ev8pred.Result{solo, ens} {
			for j := range pair[0] {
				if !equalResult(pair[0][j], pair[1][j]) {
					t.Errorf("delay=%d member %d: batch %+v != scalar %+v", delay, j, pair[0][j], pair[1][j])
				}
			}
		}
	}
}

// TestDelayedBatchZeroAllocsSteadyState gates the allocation discipline
// of the delayed batch paths: whole-run allocation counts at two stream
// lengths must be equal — the resolve window, like all batch scratch, and
// the commit-delay rings are per run, never per chunk or per branch. The
// runs collect attribution counters, as the benchmark's delayed workload
// does, so the instrumented resolve is gated too.
func TestDelayedBatchZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	records := collectRecords(t, "gcc", 16384)
	if len(records) < 16384 {
		t.Fatalf("collected only %d records", len(records))
	}
	for _, delay := range []int{8, 1500} {
		opts := ev8pred.Options{Mode: ev8pred.ModeEV8(), UpdateDelay: delay, Collect: true}
		checkSteadyStateAllocs(t, fmt.Sprintf("delay=%d run", delay), records, 4096, func(recs []ev8pred.Branch) {
			if _, err := ev8pred.Run(ev8pred.NewEV8(), trace.NewSlice(recs), opts); err != nil {
				t.Fatal(err)
			}
		})
		checkSteadyStateAllocs(t, fmt.Sprintf("delay=%d ensemble", delay), records, 4096, func(recs []ev8pred.Branch) {
			factories := []ev8pred.Factory{
				func() (ev8pred.Predictor, error) { return ev8pred.NewEV8(), nil },
				func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.ConfigEV8Size()) },
			}
			if _, err := ev8pred.RunEnsemble(factories, trace.NewSlice(recs), opts); err != nil {
				t.Fatal(err)
			}
		})
	}
}
