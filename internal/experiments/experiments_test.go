package experiments

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ev8pred/internal/cache"
	"ev8pred/internal/core"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/shard"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

// testConfig is small enough for CI but large enough that the qualitative
// shapes hold.
func testConfig(benches ...string) Config {
	cfg := Config{Instructions: 400_000}
	if len(benches) == 0 {
		cfg.Benchmarks = workload.Benchmarks()
		return cfg
	}
	for _, n := range benches {
		p, err := workload.ByName(n)
		if err != nil {
			panic(err)
		}
		cfg.Benchmarks = append(cfg.Benchmarks, p)
	}
	return cfg
}

// cell parses a numeric table cell.
func cell(t *testing.T, tbl interface{ Cell(int, int) string }, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Cell(row, col), 64)
	if err != nil {
		t.Fatalf("cell(%d,%d) = %q not numeric: %v", row, col, tbl.Cell(row, col), err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "fig5", "fig6", "table3",
		"fig7", "fig8", "fig9", "fig10", "ablations", "perf", "smt", "backup"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if _, err := ByID("fig5"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nonesuch"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestDefaultAndQuickConfigs(t *testing.T) {
	d := Default()
	if d.Instructions != 10_000_000 || len(d.Benchmarks) != 8 {
		t.Errorf("Default = %d instr, %d benches", d.Instructions, len(d.Benchmarks))
	}
	q := Quick()
	if q.Instructions >= d.Instructions {
		t.Error("Quick should be smaller than Default")
	}
}

func TestTable1Budgets(t *testing.T) {
	e, _ := ByID("table1")
	tbl, err := e.Run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 4 {
		t.Fatalf("table1 rows = %d", tbl.Rows())
	}
	out := tbl.String()
	for _, want := range []string{"BIM", "G0", "G1", "Meta", "352 Kbits", "208 Kbits", "144 Kbits"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2StaticCountsExact(t *testing.T) {
	e, _ := ByID("table2")
	tbl, err := e.Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 8 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	for r := 0; r < tbl.Rows(); r++ {
		program := cell(t, tbl, r, 4)
		paper := cell(t, tbl, r, 5)
		if program != paper {
			t.Errorf("row %d: program static sites %.0f != paper %.0f", r, program, paper)
		}
	}
}

func TestTable3RatiosAboveOne(t *testing.T) {
	e, _ := ByID("table3")
	tbl, err := e.Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.Rows(); r++ {
		ratio := cell(t, tbl, r, 1)
		// One lghist bit summarizes AT LEAST one branch by construction;
		// how much more depends on branch density per fetch block.
		if ratio < 1.0 || ratio > 4 {
			t.Errorf("row %d: lghist/ghist ratio %.2f implausible", r, ratio)
		}
	}
}

// TestTable2DynamicCountsShape holds Table 2's printed shape: measured
// dynamic densities are within 1.25x of the paper's on every benchmark
// but perl, which runs about 1.8x fewer branches per KI.
func TestTable2DynamicCountsShape(t *testing.T) {
	e, _ := ByID("table2")
	tbl, err := e.Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.Rows(); r++ {
		meas, paper := cell(t, tbl, r, 1), cell(t, tbl, r, 2)
		ratio := max(meas, paper) / min(meas, paper)
		if name := tbl.Cell(r, 0); name == "perl" {
			if ratio < 1.5 {
				t.Errorf("perl: density %.2f vs paper %.2f is within %.2fx; the shape names it the exception", meas, paper, ratio)
			}
		} else if ratio > 1.25 {
			t.Errorf("%s: density %.2f vs paper %.2f differs by %.2fx, above 1.25x", name, meas, paper, ratio)
		}
	}
}

// TestTable3RatiosBelowPaper holds Table 3's printed shape: every
// measured ratio is at least one and below the paper's.
func TestTable3RatiosBelowPaper(t *testing.T) {
	e, _ := ByID("table3")
	tbl, err := e.Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.Rows(); r++ {
		meas, paper := cell(t, tbl, r, 1), cell(t, tbl, r, 2)
		if meas < 1 || meas >= paper {
			t.Errorf("%s: ratio %.2f, want in [1, paper %.2f)", tbl.Cell(r, 0), meas, paper)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	e, _ := ByID("fig5")
	tbl, err := e.Run(testConfig("li", "m88ksim", "go"))
	if err != nil {
		t.Fatal(err)
	}
	// Columns: 1=2bcg256 2=2bcg512 3=bimode 4=gshare 5=yags288 6=yags576.
	meanRow := tbl.Rows() - 1
	g512 := cell(t, tbl, meanRow, 2)
	bimode := cell(t, tbl, meanRow, 3)
	gshare := cell(t, tbl, meanRow, 4)
	if g512 > bimode*1.05 {
		t.Errorf("2Bc-gskew 512Kb (%.2f) should not lose to bimode 544Kb (%.2f)", g512, bimode)
	}
	if g512 > gshare*1.05 {
		t.Errorf("2Bc-gskew 512Kb (%.2f) should not lose to gshare 2Mb (%.2f)", g512, gshare)
	}
	// go (row for benchmark "go") must be the hardest benchmark for the
	// 512Kb 2Bc-gskew.
	goRow := -1
	for r := 0; r < tbl.Rows(); r++ {
		if tbl.Cell(r, 0) == "go" {
			goRow = r
		}
	}
	if goRow < 0 {
		t.Fatal("go row missing")
	}
	for r := 0; r < meanRow; r++ {
		if r != goRow && cell(t, tbl, r, 2) > cell(t, tbl, goRow, 2) {
			t.Errorf("benchmark %s harder than go for 2Bc-gskew 512Kb", tbl.Cell(r, 0))
		}
	}
}

func TestFig7Shape(t *testing.T) {
	e, _ := ByID("fig7")
	tbl, err := e.Run(testConfig("li", "perl", "m88ksim"))
	if err != nil {
		t.Fatal(err)
	}
	meanRow := tbl.Rows() - 1
	ghist := cell(t, tbl, meanRow, 1)
	lghistPath := cell(t, tbl, meanRow, 3)
	oldLghist := cell(t, tbl, meanRow, 4)
	ev8vec := cell(t, tbl, meanRow, 5)
	// lghist performs in the same range as ghist (§8.3).
	if lghistPath > ghist*1.35+0.3 {
		t.Errorf("lghist+path (%.2f) far worse than ghist (%.2f)", lghistPath, ghist)
	}
	// The EV8 vector recovers most of the 3-old loss: it should not be
	// worse than plain 3-old lghist by more than noise.
	if ev8vec > oldLghist*1.15+0.2 {
		t.Errorf("EV8 vector (%.2f) worse than 3-old lghist (%.2f)", ev8vec, oldLghist)
	}
}

func TestFig8Shape(t *testing.T) {
	e, _ := ByID("fig8")
	tbl, err := e.Run(testConfig("perl", "vortex"))
	if err != nil {
		t.Fatal(err)
	}
	meanRow := tbl.Rows() - 1
	base := cell(t, tbl, meanRow, 1)
	smallBIM := cell(t, tbl, meanRow, 2)
	ev8size := cell(t, tbl, meanRow, 3)
	// Shrinking BIM has ~no impact; EV8 size is barely noticeable.
	if smallBIM > base*1.2+0.3 {
		t.Errorf("small BIM (%.2f) much worse than base (%.2f)", smallBIM, base)
	}
	if ev8size > base*1.35+0.4 {
		t.Errorf("EV8 size (%.2f) much worse than base (%.2f)", ev8size, base)
	}
}

func TestFig9Shape(t *testing.T) {
	e, _ := ByID("fig9")
	tbl, err := e.Run(testConfig("li", "perl"))
	if err != nil {
		t.Fatal(err)
	}
	meanRow := tbl.Rows() - 1
	ev8 := cell(t, tbl, meanRow, 4)
	hash := cell(t, tbl, meanRow, 5)
	// §8.5: the constrained EV8 indices stand comparison with complete
	// hashing.
	if ev8 > hash*1.5+0.5 {
		t.Errorf("EV8 indices (%.2f) far worse than complete hash (%.2f)", ev8, hash)
	}
}

func TestFig10Shape(t *testing.T) {
	e, _ := ByID("fig10")
	tbl, err := e.Run(testConfig("li", "m88ksim"))
	if err != nil {
		t.Fatal(err)
	}
	meanRow := tbl.Rows() - 1
	ev8 := cell(t, tbl, meanRow, 1)
	big := cell(t, tbl, meanRow, 2)
	// The 8Mbit predictor should be at least as good as the EV8, but the
	// return is limited (not a 2x win on these benchmarks).
	if big > ev8*1.25+0.3 {
		t.Errorf("4x1M predictor (%.2f) worse than EV8 (%.2f)", big, ev8)
	}
}

func TestPerfShape(t *testing.T) {
	e, _ := ByID("perf")
	tbl, err := e.Run(testConfig("li", "m88ksim"))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.Rows(); r++ {
		oracle := cell(t, tbl, r, 1)
		ev8ipc := cell(t, tbl, r, 2)
		bim := cell(t, tbl, r, 3)
		if !(oracle >= ev8ipc*0.999) {
			t.Errorf("row %d: oracle IPC %.2f below EV8 %.2f", r, oracle, ev8ipc)
		}
		if ev8ipc <= bim {
			t.Errorf("row %d: EV8 IPC %.2f should beat bimodal %.2f", r, ev8ipc, bim)
		}
		if oracle <= 0 || oracle > 8 {
			t.Errorf("row %d: oracle IPC %.2f out of range", r, oracle)
		}
	}
}

func TestSMTShape(t *testing.T) {
	e, _ := ByID("smt")
	tbl, err := e.Run(Config{Instructions: 800_000, Benchmarks: testConfig("perl").Benchmarks})
	if err != nil {
		t.Fatal(err)
	}
	single := cell(t, tbl, 0, 1)
	perThread := cell(t, tbl, 0, 2)
	shared := cell(t, tbl, 0, 3)
	locSingle := cell(t, tbl, 0, 4)
	locSMT := cell(t, tbl, 0, 5)
	// Per-thread histories keep SMT accuracy in the single-thread range.
	if perThread > single*1.5+0.5 {
		t.Errorf("per-thread SMT %.2f collapsed vs single-thread %.2f", perThread, single)
	}
	// A shared history context is worse than per-thread histories.
	if shared < perThread {
		t.Errorf("shared history %.2f should not beat per-thread %.2f", shared, perThread)
	}
	// The local predictor degrades under SMT (polluted local histories).
	if locSMT < locSingle {
		t.Errorf("local predictor improved under SMT: %.2f vs %.2f", locSMT, locSingle)
	}
}

func TestBackupShape(t *testing.T) {
	e, _ := ByID("backup")
	tbl, err := e.Run(testConfig("li", "go"))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.Rows(); r++ {
		alone := cell(t, tbl, r, 1)
		casc := cell(t, tbl, r, 2)
		if casc > alone*1.05+0.1 {
			t.Errorf("row %d: cascade %.2f worse than EV8 alone %.2f", r, casc, alone)
		}
		if cell(t, tbl, r, 4) < 0 {
			t.Errorf("row %d: negative override rate", r)
		}
	}
}

func TestAblationShapes(t *testing.T) {
	e, _ := ByID("ablations")
	tbl, err := e.Run(testConfig("li", "perl"))
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		t.Helper()
		for r := 0; r < tbl.Rows(); r++ {
			if tbl.Cell(r, 0) == name {
				v, err := strconv.ParseFloat(tbl.Cell(r, 1), 64)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	partial := get("2Bc-gskew 512Kb partial-update")
	total := get("2Bc-gskew 512Kb total-update")
	delayed := get("2Bc-gskew 512Kb delayed-update(64)")
	egskew := get("e-gskew 3x64K (384Kb)")
	bimod := get("bimodal 256K (512Kb)")
	if partial > total*1.1+0.1 {
		t.Errorf("partial update (%.2f) should not lose to total update (%.2f)", partial, total)
	}
	if delayed > partial*1.2+0.2 {
		t.Errorf("delayed update (%.2f) should track immediate (%.2f)", delayed, partial)
	}
	if partial > egskew*1.05+0.05 {
		t.Errorf("2Bc-gskew (%.2f) should not lose to e-gskew (%.2f)", partial, egskew)
	}
	if egskew > bimod {
		t.Errorf("e-gskew (%.2f) should beat bimodal (%.2f)", egskew, bimod)
	}
}

// TestParallelSerialByteIdentical is the contract the parallel execution
// layer must uphold: the rendered report.Table output of an experiment is
// byte-identical whether the cells run serially (Workers: 1) or on a
// crowded pool (Workers: 8).
func TestParallelSerialByteIdentical(t *testing.T) {
	for _, id := range []string{"fig5", "smt"} {
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			render := func(workers int) string {
				cfg := testConfig("li", "go")
				cfg.Instructions = 200_000
				cfg.Pool.Workers = workers
				tbl, err := e.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return tbl.String()
			}
			serial := render(1)
			parallel := render(8)
			if serial != parallel {
				t.Errorf("Workers 1 vs 8 rendered tables differ:\n--- serial ---\n%s--- parallel ---\n%s",
					serial, parallel)
			}
		})
	}
}

// TestProgressEventsCoverAllCells checks the harness progress plumbing:
// every simulation cell of an experiment reports exactly once.
func TestProgressEventsCoverAllCells(t *testing.T) {
	e, err := ByID("fig10")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig("li", "go")
	cfg.Instructions = 100_000
	cfg.Pool.Workers = 2
	var mu sync.Mutex
	events := 0
	cfg.Pool.Progress = func(sim.CellDone) {
		mu.Lock()
		events++
		mu.Unlock()
	}
	if _, err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	// fig10: 2 columns x 2 benchmarks.
	if events != 4 {
		t.Errorf("progress events = %d, want 4", events)
	}
}

// TestShardedPrecomputeFillsCache is the experiments-level sharding
// contract: three precompute workers over one shared store simulate
// disjoint, covering subsets of an experiment's cell grid, and a final
// unsharded run over that store renders the table entirely from cache
// hits, byte-identical to a never-sharded, never-cached run.
func TestShardedPrecomputeFillsCache(t *testing.T) {
	e, err := ByID("fig10") // 2 columns x 2 benchmarks = 4 cells
	if err != nil {
		t.Fatal(err)
	}
	base := testConfig("li", "go")
	base.Instructions = 100_000

	tbl, err := e.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := tbl.String()

	dir := t.TempDir()
	var mu sync.Mutex
	simulated := 0
	for k := 0; k < 3; k++ {
		store, err := cache.Open(dir) // fresh handle per worker, one directory
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Pool.Cache = store
		cfg.Shard = shard.Spec{Index: k, Count: 3}
		cfg.Pool.Progress = func(sim.CellDone) {
			mu.Lock()
			simulated++
			mu.Unlock()
		}
		if _, err := e.Run(cfg); err != nil {
			t.Fatalf("worker %d/3: %v", k, err)
		}
	}
	// Disjoint and covering: across the three workers every cell of the
	// 4-cell grid simulated exactly once.
	if simulated != 4 {
		t.Errorf("workers simulated %d cells in total, want exactly the 4 in the grid", simulated)
	}

	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	final := base
	final.Pool.Cache = store
	tbl, err = e.Run(final)
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.String(); got != want {
		t.Errorf("table rendered from the workers' store differs from the unsharded run:\n--- from store\n%s--- unsharded\n%s", got, want)
	}
	if hits, misses, readErrs, puts := store.Counts(); hits != 4 || misses != 0 || readErrs != 0 || puts != 0 {
		t.Errorf("final run counts = %d hits, %d misses, %d read errors, %d puts; want 4/0/0/0", hits, misses, readErrs, puts)
	}
}

// TestShardedPrecomputeValidation pins the worker-mode preconditions.
func TestShardedPrecomputeValidation(t *testing.T) {
	e, err := ByID("fig10")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig("li")
	cfg.Instructions = 100_000
	cfg.Shard = shard.Spec{Index: 0, Count: 2}
	if _, err := e.Run(cfg); err == nil || !strings.Contains(err.Error(), "Cache") {
		t.Errorf("sharding without a store: %v", err)
	}
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pool.Cache = store
	cfg.Shard.Index = 2
	if _, err := e.Run(cfg); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range shard: %v", err)
	}
}

func TestSmallBIMPenaltyScalesWithPredictorSize(t *testing.T) {
	// §4.6: equal table sizes are a good trade-off for SMALL predictors
	// (4x4K); for very large predictors BIM is used sparsely and can be
	// shrunk for free. Check the relative penalty of a 4x-smaller BIM is
	// larger on the small predictor than on the large one.
	cfg := testConfig("gcc") // the footprint benchmark stresses BIM hardest
	run := func(entries, bimEntries int) float64 {
		c := core.Config512K()
		for b := core.BIM; b < core.NumBanks; b++ {
			c.Banks[b].Entries = entries
		}
		c.Banks[core.BIM].Entries = bimEntries
		// Scale histories with table size, keeping G0<=Meta<=G1.
		logn := 0
		for 1<<uint(logn) < entries {
			logn++
		}
		c.Banks[core.G0].HistLen = logn - 2
		c.Banks[core.Meta].HistLen = logn
		c.Banks[core.G1].HistLen = logn + 4
		c.Name = "sized"
		rs, err := sim.RunCells(context.Background(), sim.SuiteCells(func() (predictor.Predictor, error) { return core.New(c) },
			cfg.Benchmarks, sim.Options{Mode: frontend.ModeGhist()}), cfg.Instructions, sim.PoolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Mean(rs)
	}
	smallFull := run(4*1024, 4*1024)
	smallCut := run(4*1024, 1024)
	largeFull := run(64*1024, 64*1024)
	largeCut := run(64*1024, 16*1024)
	smallPenalty := smallCut/smallFull - 1
	largePenalty := largeCut/largeFull - 1
	if largePenalty > smallPenalty+0.02 {
		t.Errorf("§4.6 inverted: small-BIM penalty %.3f (4x4K) vs %.3f (4x64K)",
			smallPenalty, largePenalty)
	}
	if largePenalty > 0.10 {
		t.Errorf("shrinking BIM on the large predictor cost %.1f%%, should be near-free",
			100*largePenalty)
	}
}
