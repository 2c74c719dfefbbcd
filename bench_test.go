package ev8pred_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper, each running the corresponding experiment end to end on a
// scaled-down deterministic workload (full-scale regeneration is
// cmd/ev8bench). Plus raw predictor-throughput benchmarks for the core
// predictors, which is what -benchmem is most useful for.
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"testing"

	"ev8pred"
	"ev8pred/internal/core"
	"ev8pred/internal/experiments"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

// benchConfig keeps experiment benchmarks fast while preserving shape.
func benchConfig(instr int64, names ...string) experiments.Config {
	cfg := experiments.Config{Instructions: instr}
	if len(names) == 0 {
		cfg.Benchmarks = workload.Benchmarks()
		return cfg
	}
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			panic(err)
		}
		cfg.Benchmarks = append(cfg.Benchmarks, p)
	}
	return cfg
}

func runExperiment(b *testing.B, id string, cfg experiments.Config) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if tbl.Rows() == 0 {
			b.Fatal("experiment produced an empty table")
		}
	}
}

func BenchmarkTable1EV8Throughput(b *testing.B) {
	// Table 1 is a configuration listing; the meaningful benchmark is
	// the throughput of the predictor it describes.
	p := ev8pred.NewEV8()
	prof, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	src, err := ev8pred.NewWorkload(prof, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	r, err := ev8pred.Run(p, src, ev8pred.Options{Mode: ev8pred.ModeEV8(), MaxBranches: int64(b.N)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(1000*float64(r.Mispredicts)/float64(r.Instructions+1), "misp/KI")
}

func BenchmarkTable2TraceGen(b *testing.B) {
	runExperiment(b, "table2", benchConfig(300_000))
}

func BenchmarkTable3LghistRatio(b *testing.B) {
	runExperiment(b, "table3", benchConfig(300_000))
}

func BenchmarkFig5Schemes(b *testing.B) {
	runExperiment(b, "fig5", benchConfig(200_000, "li", "go"))
}

func BenchmarkFig6ShortHistory(b *testing.B) {
	runExperiment(b, "fig6", benchConfig(200_000, "li", "go"))
}

func BenchmarkFig7InfoVector(b *testing.B) {
	runExperiment(b, "fig7", benchConfig(200_000, "li", "perl"))
}

func BenchmarkFig8TableSizes(b *testing.B) {
	runExperiment(b, "fig8", benchConfig(200_000, "li", "perl"))
}

func BenchmarkFig9Wordline(b *testing.B) {
	runExperiment(b, "fig9", benchConfig(200_000, "li", "perl"))
}

func BenchmarkFig10Limits(b *testing.B) {
	runExperiment(b, "fig10", benchConfig(200_000, "li", "m88ksim"))
}

func BenchmarkAblations(b *testing.B) {
	runExperiment(b, "ablations", benchConfig(150_000, "li"))
}

func BenchmarkPerfModel(b *testing.B) {
	runExperiment(b, "perf", benchConfig(200_000, "li", "m88ksim"))
}

func BenchmarkSMT(b *testing.B) {
	runExperiment(b, "smt", benchConfig(400_000, "perl"))
}

func BenchmarkBackupHierarchy(b *testing.B) {
	runExperiment(b, "backup", benchConfig(200_000, "li"))
}

// Serial vs parallel harness: the same multi-cell experiment forced onto
// the serial path (Workers 1) and fanned across the CPUs (Workers 0).
// On a multi-core machine the ratio approximates the core count; the
// outputs are byte-identical either way (see TestParallelSerialByteIdentical).

func benchWorkers(b *testing.B, workers int) {
	b.Helper()
	cfg := benchConfig(200_000) // full suite: 8 cells per column
	cfg.Pool.Workers = workers
	e, err := experiments.ByID("fig5")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteSerial(b *testing.B)   { benchWorkers(b, 1) }
func BenchmarkSuiteParallel(b *testing.B) { benchWorkers(b, 0) }

// Ensemble vs per-cell schedule: the same multi-configuration sweep run
// with every cell generating and front-end processing its own stream, and
// under the single-pass ensemble engine (one stream pass per benchmark,
// shared by all configurations). TestEnsembleSweepModesAgree pins that
// both schedules return identical results, so the timing difference is
// schedule cost alone.

// gshareSweepFactories returns k gshare configurations differing only in
// history length — the shape of an ev8sweep history sweep, and the case
// where ensemble amortization matters most (the predictor step is cheap,
// so generation + front end dominate a per-cell run).
func gshareSweepFactories(k int) []ev8pred.Factory {
	factories := make([]ev8pred.Factory, k)
	for i := range factories {
		h := 8 + 2*i
		factories[i] = func() (ev8pred.Predictor, error) {
			return ev8pred.NewGshare(1<<16, min(h, 32))
		}
	}
	return factories
}

// gskewSweepFactories returns k 2Bc-gskew configurations sweeping the G1
// history length (the ev8sweep 2bcg/history shape) — a heavier predictor
// step, so the ensemble win is smaller but still real.
func gskewSweepFactories(k int) []ev8pred.Factory {
	factories := make([]ev8pred.Factory, k)
	for i := range factories {
		h := 13 + 2*i
		factories[i] = func() (ev8pred.Predictor, error) {
			c := ev8pred.Config512K()
			c.Banks[core.G1].HistLen = h
			c.Banks[core.Meta].HistLen = h * 3 / 4
			c.Banks[core.G0].HistLen = h * 2 / 3
			c.Name = fmt.Sprintf("2bcg-512K-g1h%d", h)
			return ev8pred.New2BcGskew(c)
		}
	}
	return factories
}

// sweepCells lays a (factory × profile) sweep out in factory-major,
// profile-minor order under the ghist information vector.
func sweepCells(factories []ev8pred.Factory, profs []workload.Profile) []sim.Cell {
	opts := ev8pred.Options{Mode: ev8pred.ModeGhist()}
	cells := make([]sim.Cell, 0, len(factories)*len(profs))
	for _, f := range factories {
		for _, prof := range profs {
			cells = append(cells, sim.Cell{Factory: f, Profile: prof, Opts: opts})
		}
	}
	return cells
}

// benchSweep measures one (factories × suite) sweep of 200k instructions
// per benchmark under the given ensemble mode at the default worker
// count, reporting ns/branch across the whole fan-out. Both modes run the
// identical cell list, and its 64 cells outnumber the workers, so
// EnsembleAuto groups them: the ratio of the two ns/branch figures is the
// ensemble speedup.
func benchSweep(b *testing.B, factories []ev8pred.Factory, mode ev8pred.EnsembleMode) {
	b.Helper()
	cells := sweepCells(factories, workload.Benchmarks())
	var branches int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := sim.RunCells(context.Background(), cells, 200_000, sim.PoolOptions{Ensemble: mode})
		if err != nil {
			b.Fatal(err)
		}
		branches = 0
		for _, r := range rs {
			branches += r.Branches
		}
	}
	b.StopTimer()
	if branches > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(branches), "ns/branch")
	}
}

func BenchmarkSweepPerCell8xGshare(b *testing.B) {
	benchSweep(b, gshareSweepFactories(8), ev8pred.EnsembleOff)
}

func BenchmarkSweepEnsemble8xGshare(b *testing.B) {
	benchSweep(b, gshareSweepFactories(8), ev8pred.EnsembleAuto)
}

func BenchmarkSweepPerCell8xGskew(b *testing.B) {
	benchSweep(b, gskewSweepFactories(8), ev8pred.EnsembleOff)
}

func BenchmarkSweepEnsemble8xGskew(b *testing.B) {
	benchSweep(b, gskewSweepFactories(8), ev8pred.EnsembleAuto)
}

// Raw predictor throughput: branches predicted+updated per second.

func benchPredictor(b *testing.B, p ev8pred.Predictor, mode ev8pred.Mode) {
	b.Helper()
	prof, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	src, err := ev8pred.NewWorkload(prof, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := ev8pred.Run(p, src, ev8pred.Options{Mode: mode, MaxBranches: int64(b.N)}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPredictorEV8(b *testing.B) {
	benchPredictor(b, ev8pred.NewEV8(), ev8pred.ModeEV8())
}

func BenchmarkPredictor2BcGskew512K(b *testing.B) {
	p, err := ev8pred.New2BcGskew(ev8pred.Config512K())
	if err != nil {
		b.Fatal(err)
	}
	benchPredictor(b, p, ev8pred.ModeGhist())
}

func BenchmarkPredictorGshare2M(b *testing.B) {
	p, err := ev8pred.NewGshare(1024*1024, 20)
	if err != nil {
		b.Fatal(err)
	}
	benchPredictor(b, p, ev8pred.ModeGhist())
}

func BenchmarkPredictorBimodal(b *testing.B) {
	p, err := ev8pred.NewBimodal(256 * 1024)
	if err != nil {
		b.Fatal(err)
	}
	benchPredictor(b, p, ev8pred.ModeGhist())
}

func BenchmarkPredictorPerceptron(b *testing.B) {
	p, err := ev8pred.NewPerceptron(1024, 27)
	if err != nil {
		b.Fatal(err)
	}
	benchPredictor(b, p, ev8pred.ModeGhist())
}
