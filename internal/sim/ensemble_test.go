package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/bimodal"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// sweepCells builds the K-factories × profiles grid the ensemble
// scheduler exists for (factory-major order, like the sweep harness).
func sweepCells(factories []Factory, profs []workload.Profile, opts Options) []Cell {
	cells := make([]Cell, 0, len(factories)*len(profs))
	for _, f := range factories {
		for _, prof := range profs {
			cells = append(cells, Cell{Factory: f, Profile: prof, Opts: opts})
		}
	}
	return cells
}

func gshareFactories(k int) []Factory {
	out := make([]Factory, k)
	for i := range out {
		h := 8 + i
		out[i] = func() (predictor.Predictor, error) { return gshare.New(1<<13, h) }
	}
	return out
}

// TestEnsembleGroupsDecisions pins the pool's one grouping rule: cells
// sharing a (workload, options) pair form one group exactly when the mode
// is not EnsembleOff and the fan-out is wider than the workers.
func TestEnsembleGroupsDecisions(t *testing.T) {
	profs := benchProfiles(t, "li", "go")
	cells := sweepCells(gshareFactories(3), profs, Options{}) // 6 cells, 2 workloads
	distinct := sweepCells(gshareFactories(1), profs, Options{})

	// singletons reports whether g is one group of one per cell, in order.
	singletons := func(g []cellGroup, n int) bool {
		if len(g) != n {
			return false
		}
		for i := range g {
			if len(g[i].cells) != 1 || g[i].cells[0] != i {
				return false
			}
		}
		return true
	}
	if g := ensembleGroups(cells, PoolOptions{Workers: 1, Ensemble: EnsembleOff}); !singletons(g, len(cells)) {
		t.Errorf("EnsembleOff grouped anyway: %v", g)
	}
	if g := ensembleGroups(nil, PoolOptions{Workers: 1}); len(g) != 0 {
		t.Errorf("empty cell list grouped: %v", g)
	}
	// Fan-out no wider than the workers -> groups of one.
	for _, workers := range []int{6, 8} {
		if g := ensembleGroups(cells, PoolOptions{Workers: workers}); !singletons(g, len(cells)) {
			t.Errorf("workers=%d: grouped a fan-out that fits the workers: %v", workers, g)
		}
	}
	// Wider than the workers and workloads shared -> grouped, from one
	// worker short of the fan-out down to the serial pool.
	for _, workers := range []int{5, 2, 1} {
		g := ensembleGroups(cells, PoolOptions{Workers: workers})
		if len(g) != 2 {
			t.Fatalf("workers=%d: %d groups, want 2", workers, len(g))
		}
		// Factory-major input: group 0 is the first profile with cells 0,2,4.
		if g[0].prof.Name != "li" || len(g[0].cells) != 3 || g[0].cells[0] != 0 || g[0].cells[1] != 2 {
			t.Errorf("workers=%d: group 0 wrong: %+v", workers, g[0])
		}
	}
	// Workers 0 means one per CPU: a fan-out wider than that groups.
	wide := sweepCells(gshareFactories(DefaultWorkers()+1), profs, Options{})
	if g := ensembleGroups(wide, PoolOptions{}); len(g) != 2 {
		t.Errorf("default workers: %d groups for %d cells, want 2", len(g), len(wide))
	}
	// Nothing shared -> groups of one even when wider than the workers.
	if g := ensembleGroups(distinct, PoolOptions{Workers: 1}); !singletons(g, len(distinct)) {
		t.Errorf("grouped singletons: %v", g)
	}
	// Differing options split a shared workload into separate groups.
	mixed := []Cell{
		{Factory: gshareFactories(1)[0], Profile: profs[0], Opts: Options{}},
		{Factory: gshareFactories(1)[0], Profile: profs[0], Opts: Options{UpdateDelay: 8}},
	}
	if g := ensembleGroups(mixed, PoolOptions{Workers: 1}); len(g) != 2 {
		t.Errorf("options not part of the group key: %d groups, want 2", len(g))
	}
}

// TestRunCellsEnsembleMatchesPerCell pins the scatter: grouped scheduling
// (EnsembleAuto, 12 cells over at most 8 workers) must return the same
// results in the same cell order as per-cell runs, at every worker count.
func TestRunCellsEnsembleMatchesPerCell(t *testing.T) {
	profs := benchProfiles(t, "li", "go", "m88ksim")
	cells := sweepCells(gshareFactories(4), profs, Options{})
	run := func(workers int, mode EnsembleMode) []Result {
		rs, err := RunCells(context.Background(), cells, 100_000,
			PoolOptions{Workers: workers, Ensemble: mode})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	want := run(1, EnsembleOff)
	for _, workers := range []int{1, 2, 8} {
		got := run(workers, EnsembleAuto)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: result[%d] = %+v, per-cell %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunCellsEnsembleProgress(t *testing.T) {
	profs := benchProfiles(t, "li", "go")
	cells := sweepCells(gshareFactories(3), profs, Options{})
	var events []CellDone
	_, err := RunCells(context.Background(), cells, 50_000,
		PoolOptions{Workers: 2,
			Progress: func(ev CellDone) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(cells) {
		t.Fatalf("%d progress events, want %d", len(events), len(cells))
	}
	seen := map[int]bool{}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Errorf("event %d: Done = %d, want %d (not monotone)", i, ev.Done, i+1)
		}
		if ev.Total != len(cells) {
			t.Errorf("event %d: Total = %d, want %d", i, ev.Total, len(cells))
		}
		if ev.Branches <= 0 || ev.Instructions <= 0 || ev.Predictor == "" || ev.Workload == "" {
			t.Errorf("event %d: incomplete cell stats: %+v", i, ev)
		}
		if seen[ev.Index] {
			t.Errorf("cell %d reported twice", ev.Index)
		}
		seen[ev.Index] = true
	}
}

func TestRunCellsEnsembleFactoryError(t *testing.T) {
	profs := benchProfiles(t, "li")
	boom := errors.New("no predictor")
	bad := func() (predictor.Predictor, error) { return nil, boom }
	cells := []Cell{
		{Factory: bad, Profile: profs[0], Opts: Options{}},
		{Factory: bad, Profile: profs[0], Opts: Options{}},
	}
	_, err := RunCells(context.Background(), cells, 10_000, PoolOptions{Workers: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if !strings.Contains(err.Error(), "li") {
		t.Errorf("error %v should name the failing benchmark", err)
	}
}

// TestNegativeThreadIDRejected: a negative thread id cannot come from a
// valid trace; both engines must fail loudly instead of misindexing.
func TestNegativeThreadIDRejected(t *testing.T) {
	recs := []trace.Branch{{PC: 4096, Target: 8192, Taken: true, Gap: 3, Thread: -1}}
	if _, err := Run(bimodal.MustNew(64), trace.NewSlice(recs), Options{}); err == nil ||
		!strings.Contains(err.Error(), "negative thread id") {
		t.Errorf("Run: err = %v, want negative-thread error", err)
	}
	factories := []Factory{func() (predictor.Predictor, error) { return bimodal.New(64) }}
	if _, err := RunEnsemble(factories, trace.NewSlice(recs), Options{}); err == nil ||
		!strings.Contains(err.Error(), "negative thread id") {
		t.Errorf("RunEnsemble: err = %v, want negative-thread error", err)
	}
}

// TestEnsembleFillStopsAtBudget: under MaxBranches an ensemble reads its
// source exactly as far as a solo Run does — with batch members and with
// per-branch members, with the budget ending mid-chunk — so the generator's next
// record after RunEnsemble is the one Run leaves.
func TestEnsembleFillStopsAtBudget(t *testing.T) {
	prof := benchProfiles(t, "gcc")[0]
	const budget = 1500 // inside the second 1024-record fill
	for _, opts := range []Options{
		{MaxBranches: budget},                                  // batch members
		{MaxBranches: budget, Batch: BatchOff},                 // per-branch members
		{MaxBranches: budget, UpdateDelay: 8},                  // batch members, commit delay
		{MaxBranches: budget, UpdateDelay: 8, Batch: BatchOff}, // per-branch members, commit delay
	} {
		solo := workload.MustNew(prof, 0)
		p, _ := gshareFactories(1)[0]()
		if _, err := Run(p, solo, opts); err != nil {
			t.Fatal(err)
		}
		ens := workload.MustNew(prof, 0)
		if _, err := RunEnsemble(gshareFactories(3), ens, opts); err != nil {
			t.Fatal(err)
		}
		want, _ := next(solo)
		if got, _ := next(ens); got != want {
			t.Errorf("batch=%v delay=%d: ensemble left the generator at %+v, Run at %+v",
				opts.Batch, opts.UpdateDelay, got, want)
		}
	}
}
