package main

import (
	"reflect"
	"testing"

	"ev8pred/internal/core"
	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/report"
	"ev8pred/internal/sim"
	"ev8pred/internal/sweep"
	"ev8pred/internal/workload"
)

// TestDecompositionMatchesSimulator pins the traced run's premise: the
// harness-driven generator / front-end / index / resolve loop yields
// Results (counters included) identical to sim.Run for the EV8 and to
// sim.RunEnsemble for the 2Bc-gskew history roster and the delayed
// EV8 + 2Bc-gskew pair, at update delays 0 and 8, under an instruction
// budget and under a branch budget.
func TestDecompositionMatchesSimulator(t *testing.T) {
	ev8f := func() (predictor.Predictor, error) { return ev8.New(ev8.DefaultConfig()) }
	coref := func() (predictor.Predictor, error) { return core.New(core.ConfigEV8Size()) }
	bcg, err := sweep.FamilyFactory("2bcg", "history")
	if err != nil {
		t.Fatal(err)
	}
	var roster []sim.Factory
	for _, h := range []int{13, 21, 27} {
		roster = append(roster, func() (predictor.Predictor, error) { return bcg(h) })
	}
	for _, name := range []string{"gcc", "li"} {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			delay       int
			budget      int64
			maxBranches int64
		}{{0, 300_000, 0}, {8, 300_000, 0}, {0, 0, 40_000}, {8, 0, 40_000}} {
			delay, budget := run.delay, run.budget
			for _, c := range []struct {
				name      string
				factories []sim.Factory
				mode      frontend.Mode
			}{
				{"ev8", []sim.Factory{ev8f}, frontend.ModeEV8()},
				{"2bcg-roster", roster, frontend.ModeGhist()},
				{"ev8+core", []sim.Factory{ev8f, coref}, frontend.ModeEV8()},
			} {
				opts := sim.Options{Mode: c.mode, UpdateDelay: delay, Collect: true, MaxBranches: run.maxBranches}
				var want []sim.Result
				if len(c.factories) == 1 {
					p, _ := c.factories[0]()
					r, err := sim.RunBenchmark(p, prof, budget, opts)
					if err != nil {
						t.Fatal(err)
					}
					want = []sim.Result{r}
				} else if want, err = sim.RunEnsembleBenchmark(c.factories, prof, budget, opts); err != nil {
					t.Fatal(err)
				}
				for _, tr := range []*tracer{nil, newTracer(testEpoch, 0)} {
					d, err := decomposeGroup(tr, 0, prof, budget, c.factories, opts)
					if err != nil {
						t.Fatalf("%s/%s/delay %d: %v", c.name, name, delay, err)
					}
					if got, exp := report.FromResults(d.results), report.FromResults(want); !reflect.DeepEqual(got, exp) {
						t.Errorf("%s/%s/delay %d (traced %v): decomposition\n%+v\nsimulator\n%+v", c.name, name, delay, tr != nil, got, exp)
					}
					if d.branches != want[0].Branches || d.records < d.branches || d.blocks == 0 {
						t.Errorf("%s/%s: counts records=%d blocks=%d branches=%d (simulator %d)", c.name, name, d.records, d.blocks, d.branches, want[0].Branches)
					}
				}
			}
		}
	}
}
