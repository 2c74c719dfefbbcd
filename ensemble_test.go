package ev8pred_test

// Differential suite for the single-pass ensemble engine: RunEnsemble must
// produce Results byte-identical to independent Run calls — for every
// predictor family, every benchmark, every update-delay setting, with and
// without attribution collection, and whether the stream arrives batched
// (trace.BatchSource) or record-at-a-time. A divergence here means the
// shared front-end pass leaked state between members or dropped a
// semantic of the per-cell loop, so these tests are the acceptance gate
// for the pool's ensemble scheduler (EnsembleMode) as a whole.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ev8pred"
	"ev8pred/internal/sim"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

type ensembleCase struct {
	name string
	make func() (ev8pred.Predictor, error)
}

// ensembleRoster covers every predictor family under the conventional
// ghist information vector: the fused hot-path schemes, the plain
// Predict/Update fallbacks, and the composite predictors.
func ensembleRoster() []ensembleCase {
	return []ensembleCase{
		{"bimodal", func() (ev8pred.Predictor, error) { return ev8pred.NewBimodal(1 << 14) }},
		{"gshare", func() (ev8pred.Predictor, error) { return ev8pred.NewGshare(1<<16, 16) }},
		{"gas", func() (ev8pred.Predictor, error) { return ev8pred.NewGAs(6, 5) }},
		{"egskew-partial", func() (ev8pred.Predictor, error) { return ev8pred.NewEGskew(8192, 13, true) }},
		{"egskew-total", func() (ev8pred.Predictor, error) { return ev8pred.NewEGskew(8192, 13, false) }},
		{"bimode", func() (ev8pred.Predictor, error) { return ev8pred.NewBimode(1024, 256, 10) }},
		{"yags", func() (ev8pred.Predictor, error) { return ev8pred.NewYAGS(1024, 1024, 10) }},
		{"agree", func() (ev8pred.Predictor, error) { return ev8pred.NewAgree(1024, 1024, 10) }},
		{"local", func() (ev8pred.Predictor, error) { return ev8pred.NewLocal(1024, 10) }},
		{"perceptron", func() (ev8pred.Predictor, error) { return ev8pred.NewPerceptron(256, 12) }},
		{"dhlf", func() (ev8pred.Predictor, error) { return ev8pred.NewDHLF(1024, 12, 256) }},
		{"2bcg-256K", func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.Config256K()) }},
		{"hybrid", func() (ev8pred.Predictor, error) {
			l, err := ev8pred.NewLocal(256, 8)
			if err != nil {
				return nil, err
			}
			g, err := ev8pred.NewGshare(1<<12, 10)
			if err != nil {
				return nil, err
			}
			return ev8pred.NewHybrid(l, g, 256)
		}},
	}
}

// ensembleRosterEV8 covers the schemes that belong under the EV8
// information vector, including the two BlockObserver consumers (the EV8
// itself, standalone and inside a cascade, which forwards each block to
// it) — the shared fetch-block fan-out must keep their bank sequencers
// exactly in per-cell lockstep.
func ensembleRosterEV8() []ensembleCase {
	return []ensembleCase{
		{"ev8", func() (ev8pred.Predictor, error) { return ev8pred.NewEV8(), nil }},
		{"2bcg-ev8size", func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.ConfigEV8Size()) }},
		{"cascade", func() (ev8pred.Predictor, error) {
			backup, err := ev8pred.NewPerceptron(256, 12)
			if err != nil {
				return nil, err
			}
			return ev8pred.NewCascade(ev8pred.NewEV8(), backup, 4096)
		}},
	}
}

// diffEnsemble runs one roster as a single ensemble and as independent
// per-cell runs over the same benchmark and asserts identical Results.
func diffEnsemble(t *testing.T, roster []ensembleCase, mode ev8pred.Mode, bench string, instr int64, delay int) {
	t.Helper()
	prof, err := ev8pred.BenchmarkByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	opts := ev8pred.Options{Mode: mode, UpdateDelay: delay}
	factories := make([]ev8pred.Factory, len(roster))
	for i, c := range roster {
		factories[i] = c.make
	}
	grouped, err := ev8pred.RunEnsembleBenchmark(factories, prof, instr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(grouped) != len(roster) {
		t.Fatalf("%d ensemble results for %d factories", len(grouped), len(roster))
	}
	for i, c := range roster {
		p, err := c.make()
		if err != nil {
			t.Fatal(err)
		}
		solo, err := ev8pred.RunBenchmark(p, prof, instr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if grouped[i] != solo {
			t.Errorf("%s/%s delay=%d: ensemble %+v != per-cell %+v", c.name, bench, delay, grouped[i], solo)
		}
		if grouped[i].Branches == 0 {
			t.Errorf("%s/%s: degenerate run (0 branches)", c.name, bench)
		}
	}
}

// TestEnsembleMatchesPerCell is the headline gate: every ghist-mode
// family, every benchmark, immediate update.
func TestEnsembleMatchesPerCell(t *testing.T) {
	roster := ensembleRoster()
	for _, prof := range ev8pred.Benchmarks() {
		t.Run(prof.Name, func(t *testing.T) {
			diffEnsemble(t, roster, ev8pred.ModeGhist(), prof.Name, 50_000, 0)
		})
	}
}

// TestEnsembleMatchesPerCellDelayed repeats the comparison under commit
// delays: each member's private ring must behave exactly like Run's.
func TestEnsembleMatchesPerCellDelayed(t *testing.T) {
	roster := ensembleRoster()
	for _, bench := range []string{"gcc", "go", "li"} {
		t.Run(bench, func(t *testing.T) {
			for _, delay := range []int{1, 8} {
				diffEnsemble(t, roster, ev8pred.ModeGhist(), bench, 50_000, delay)
			}
		})
	}
}

// TestEnsembleMatchesPerCellEV8 runs the EV8-vector roster — the
// BlockObserver fan-out — over every benchmark and delay setting.
func TestEnsembleMatchesPerCellEV8(t *testing.T) {
	roster := ensembleRosterEV8()
	for _, prof := range ev8pred.Benchmarks() {
		t.Run(prof.Name, func(t *testing.T) {
			diffEnsemble(t, roster, ev8pred.ModeEV8(), prof.Name, 50_000, 0)
		})
	}
	for _, delay := range []int{1, 8} {
		diffEnsemble(t, roster, ev8pred.ModeEV8(), "gcc", 50_000, delay)
	}
}

// TestEnsembleStatsMatch pins attribution collection: with Collect on,
// each member's component counters must deep-equal its per-cell run's.
func TestEnsembleStatsMatch(t *testing.T) {
	roster := ensembleRosterEV8()
	prof, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	opts := ev8pred.Options{Mode: ev8pred.ModeEV8(), Collect: true}
	factories := make([]ev8pred.Factory, len(roster))
	for i, c := range roster {
		factories[i] = c.make
	}
	grouped, err := ev8pred.RunEnsembleBenchmark(factories, prof, 50_000, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range roster {
		p, err := c.make()
		if err != nil {
			t.Fatal(err)
		}
		solo, err := ev8pred.RunBenchmark(p, prof, 50_000, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(grouped[i].Stats, solo.Stats) {
			t.Errorf("%s: ensemble stats %+v != per-cell stats %+v", c.name, grouped[i].Stats, solo.Stats)
		}
		// The comparable core must match too; blank out the pointers first.
		g, s := grouped[i], solo
		g.Stats, s.Stats = nil, nil
		if g != s {
			t.Errorf("%s: ensemble %+v != per-cell %+v under Collect", c.name, g, s)
		}
	}
}

// nextOnly hides a source's NextBatch (and Err) so the ensemble loop is
// forced onto the record-at-a-time leg of fillBatch.
type nextOnly struct{ src ev8pred.Source }

func (n *nextOnly) Next() (ev8pred.Branch, bool) { return n.src.Next() }

// TestEnsembleBatchedMatchesUnbatched feeds the same records through the
// batched (trace.Slice implements BatchSource) and unbatched legs and
// asserts identical Results.
func TestEnsembleBatchedMatchesUnbatched(t *testing.T) {
	prof, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ev8pred.NewWorkload(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	records := trace.Collect(g, 30_000)
	factories := []ev8pred.Factory{
		func() (ev8pred.Predictor, error) { return ev8pred.NewGshare(1<<16, 16) },
		func() (ev8pred.Predictor, error) { return ev8pred.NewBimodal(1 << 14) },
		func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.Config256K()) },
	}
	for _, delay := range []int{0, 8} {
		opts := ev8pred.Options{Mode: ev8pred.ModeGhist(), UpdateDelay: delay}
		var batchSrc ev8pred.Source = trace.NewSlice(records)
		if _, ok := batchSrc.(ev8pred.BatchSource); !ok {
			t.Fatal("trace.Slice does not implement BatchSource")
		}
		batched, err := ev8pred.RunEnsemble(factories, batchSrc, opts)
		if err != nil {
			t.Fatal(err)
		}
		unbatched, err := ev8pred.RunEnsemble(factories, &nextOnly{trace.NewSlice(records)}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched, unbatched) {
			t.Errorf("delay=%d: batched %+v != unbatched %+v", delay, batched, unbatched)
		}
	}
}

// TestEnsembleEdgeSemantics pins the contract corners shared with Run:
// MaxBranches + Warmup accounting, the empty factory list, and factory
// failure.
func TestEnsembleEdgeSemantics(t *testing.T) {
	prof, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	opts := ev8pred.Options{Mode: ev8pred.ModeGhist(), MaxBranches: 5_000, Warmup: 1_000}
	factories := []ev8pred.Factory{
		func() (ev8pred.Predictor, error) { return ev8pred.NewGshare(1<<14, 12) },
	}
	grouped, err := ev8pred.RunEnsembleBenchmark(factories, prof, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := factories[0]()
	if err != nil {
		t.Fatal(err)
	}
	solo, err := ev8pred.RunBenchmark(p, prof, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if grouped[0] != solo {
		t.Errorf("MaxBranches+Warmup: ensemble %+v != per-cell %+v", grouped[0], solo)
	}
	if solo.Branches != 4_000 {
		t.Errorf("measured branches = %d, want MaxBranches-Warmup = 4000", solo.Branches)
	}

	empty, err := ev8pred.RunEnsemble(nil, trace.NewSlice(nil), ev8pred.Options{})
	if err != nil || empty == nil || len(empty) != 0 {
		t.Errorf("empty factory list: got (%v, %v), want ([], nil)", empty, err)
	}

	boom := errors.New("boom")
	_, err = ev8pred.RunEnsemble([]ev8pred.Factory{
		func() (ev8pred.Predictor, error) { return nil, boom },
	}, trace.NewSlice(nil), ev8pred.Options{})
	if !errors.Is(err, boom) {
		t.Errorf("factory failure: err = %v, want wrapped boom", err)
	}
}

// TestEnsembleSourceError checks the mid-stream failure contract: the
// same error shape as Run, with partial results intact.
func TestEnsembleSourceError(t *testing.T) {
	prof, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ev8pred.NewWorkload(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	records := trace.Collect(g, 2_000)
	fail := errors.New("simulated decode failure")
	src := &failingSource{records: records, err: fail}
	factories := []ev8pred.Factory{
		func() (ev8pred.Predictor, error) { return ev8pred.NewBimodal(1 << 12) },
	}
	rs, err := ev8pred.RunEnsemble(factories, src, ev8pred.Options{Mode: ev8pred.ModeGhist()})
	if !errors.Is(err, fail) {
		t.Fatalf("err = %v, want wrapped %v", err, fail)
	}
	if len(rs) != 1 || rs[0].Branches == 0 {
		t.Errorf("partial results not preserved: %+v", rs)
	}
}

// failingSource replays records then fails as a trace.ErrSource would.
type failingSource struct {
	records []ev8pred.Branch
	pos     int
	err     error
}

func (f *failingSource) Next() (ev8pred.Branch, bool) {
	if f.pos >= len(f.records) {
		return ev8pred.Branch{}, false
	}
	b := f.records[f.pos]
	f.pos++
	return b, true
}

func (f *failingSource) Err() error { return f.err }

// TestEnsembleZeroAllocsSteadyState gates the per-branch-per-member
// allocation discipline: a whole RunEnsemble carries constant setup cost
// (predictor tables, trackers, the batch buffer, the rings), so the gate
// compares whole-run allocation counts at two stream lengths — equal
// totals mean the marginal branches allocated nothing for any member.
func TestEnsembleZeroAllocsSteadyState(t *testing.T) {
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
	records := trace.Collect(g, 8192)
	if len(records) < 8192 {
		t.Fatalf("collected only %d records", len(records))
	}
	checkSteadyStateAllocs(t, "ensemble loop", records, 2048, func(recs []ev8pred.Branch) {
		factories := []ev8pred.Factory{
			func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.Config512K()) },
			func() (ev8pred.Predictor, error) { return ev8pred.NewGshare(1<<16, 16) },
			func() (ev8pred.Predictor, error) { return ev8pred.NewBimodal(1 << 14) },
		}
		_, err := ev8pred.RunEnsemble(factories, trace.NewSlice(recs), ev8pred.Options{
			Mode:        ev8pred.ModeGhist(),
			UpdateDelay: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestEnsembleSweepModesAgree pins the property the BenchmarkSweep*
// pairs rely on: a pool sweep under EnsembleOff and under EnsembleAuto
// with fewer workers than cells (which groups) returns identical
// results, so their timing difference measures schedule cost alone.
func TestEnsembleSweepModesAgree(t *testing.T) {
	cells := sweepCells(gshareSweepFactories(4), workload.Benchmarks()[:2])
	perCell, err := sim.RunCells(context.Background(), cells, 50_000,
		sim.PoolOptions{Workers: 1, Ensemble: ev8pred.EnsembleOff})
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := sim.RunCells(context.Background(), cells, 50_000,
		sim.PoolOptions{Workers: 1, Ensemble: ev8pred.EnsembleAuto})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(perCell, grouped) {
		t.Fatalf("per-cell and ensemble sweeps diverged:\noff: %+v\non:  %+v", perCell, grouped)
	}
}
