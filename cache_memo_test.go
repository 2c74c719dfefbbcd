package ev8pred_test

// Keying-cost suite for the result cache: the cells of one suite share
// one configuration key, so keying a sweep builds one predictor per
// swept value, not one per cell, and the shared key is the key each cell
// would derive on its own.

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ev8pred"
	"ev8pred/internal/cache"
	"ev8pred/internal/predictor"
	"ev8pred/internal/shard"
	"ev8pred/internal/sim"
	"ev8pred/internal/sweep"
	"ev8pred/internal/workload"
)

// countingFactory wraps f and counts the predictors it is asked for.
func countingFactory(f sweep.Factory) (sweep.Factory, *atomic.Int64) {
	var calls atomic.Int64
	return func(x int) (predictor.Predictor, error) {
		calls.Add(1)
		return f(x)
	}, &calls
}

// cacheBenchmarks returns the first n built-in benchmark profiles.
func cacheBenchmarks(t *testing.T, n int) []workload.Profile {
	t.Helper()
	profs := ev8pred.Benchmarks()
	if len(profs) < n {
		t.Fatalf("%d built-in benchmarks, want at least %d", len(profs), n)
	}
	return profs[:n]
}

// TestCacheKeyingBuildsOncePerValue: keying every cell of a 4-value ×
// 8-benchmark sweep runs the factory once per value.
func TestCacheKeyingBuildsOncePerValue(t *testing.T) {
	f, calls := countingFactory(func(h int) (predictor.Predictor, error) { return ev8pred.NewGshare(1<<12, h) })
	cells := sweep.Cells(f, []int{6, 8, 10, 12}, cacheBenchmarks(t, 8), sim.Options{Mode: ev8pred.ModeGhist()})
	for i, c := range cells {
		if _, ok, err := sim.CellKey(c, 10_000); err != nil || !ok {
			t.Fatalf("cell %d: ok=%v err=%v", i, ok, err)
		}
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("keying 32 cells called the factory %d times, want 4", got)
	}
}

// TestCacheWarmSweepBuildsOncePerValue: a warm sweep over a store that
// holds every cell, with its cells built afresh as a served job builds
// them, runs the factory once per value and simulates nothing.
func TestCacheWarmSweepBuildsOncePerValue(t *testing.T) {
	const instr = 20_000
	f, calls := countingFactory(func(h int) (predictor.Predictor, error) { return ev8pred.NewGshare(1<<12, h) })
	xs := []int{8, 10, 12}
	profs := cacheBenchmarks(t, 4)
	opts := sim.Options{Mode: ev8pred.ModeGhist()}
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := sim.PoolOptions{Workers: 2, Cache: store}
	cold, err := sweep.RunPool(f, xs, profs, instr, opts, pool)
	if err != nil {
		t.Fatal(err)
	}

	calls.Store(0)
	warm, err := sweep.RunPool(f, xs, profs, instr, opts, pool)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(xs)) {
		t.Errorf("warm sweep called the factory %d times, want %d (one per value)", got, len(xs))
	}
	cells := int64(len(xs) * len(profs))
	if hits, misses, readErrs, puts := store.Counts(); hits != cells || misses != cells || readErrs != 0 || puts != cells {
		t.Errorf("counts after cold+warm = %d/%d/%d/%d, want %d/%d/0/%d (warm run all hits)", hits, misses, readErrs, puts, cells, cells, cells)
	}
	for i := range cold {
		sameResults(t, "warm point", warm[i].Results, cold[i].Results)
	}
}

// TestCacheSharedKeyMatchesLiteralCells: a key read from the suite's
// shared memo equals the key a cell built without SuiteCells derives
// alone, for every sweep family and for an EV8 suite.
func TestCacheSharedKeyMatchesLiteralCells(t *testing.T) {
	profs := cacheBenchmarks(t, 3)
	opts := sim.Options{Mode: ev8pred.ModeGhist(), Warmup: 10}
	families := map[string][]int{
		"gshare/history":     {8, 12},
		"gshare/size":        {12, 14},
		"2bcg/history":       {13, 21},
		"2bcg/size":          {12, 13},
		"perceptron/history": {12, 16},
	}
	var suites [][]sim.Cell
	for fam, xs := range families {
		scheme, param, _ := strings.Cut(fam, "/")
		f, err := sweep.FamilyFactory(scheme, param)
		if err != nil {
			t.Fatal(err)
		}
		cells := sweep.Cells(f, xs, profs, opts)
		for i := range xs {
			suites = append(suites, cells[i*len(profs):(i+1)*len(profs)])
		}
	}
	ev8f := func() (predictor.Predictor, error) { return ev8pred.NewEV8(), nil }
	suites = append(suites, sim.SuiteCells(ev8f, profs, sim.Options{Mode: ev8pred.ModeEV8()}))

	for _, suite := range suites {
		for _, c := range suite {
			shared, sok, serr := sim.CellKey(c, 30_000)
			literal, lok, lerr := sim.CellKey(sim.Cell{Factory: c.Factory, Profile: c.Profile, Opts: c.Opts}, 30_000)
			if serr != nil || lerr != nil {
				t.Fatalf("%s: errors %v / %v", c.Profile.Name, serr, lerr)
			}
			if shared != literal || sok != lok {
				t.Errorf("%s: shared key %+v (ok=%v) != literal key %+v (ok=%v)", c.Profile.Name, shared, sok, literal, lok)
			}
		}
	}
}

// TestCachePerceptronStaysUncacheable: the perceptron exposes no
// configuration key, so a sweep over it bypasses the store and is
// simulated on every run.
func TestCachePerceptronStaysUncacheable(t *testing.T) {
	const instr = 20_000
	pf, err := sweep.FamilyFactory("perceptron", "history")
	if err != nil {
		t.Fatal(err)
	}
	f, calls := countingFactory(pf)
	xs := []int{8, 12}
	profs := cacheBenchmarks(t, 2)
	opts := sim.Options{Mode: ev8pred.ModeGhist()}
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := sim.PoolOptions{Workers: 1, Cache: store}
	first, err := sweep.RunPool(f, xs, profs, instr, opts, pool)
	if err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	second, err := sweep.RunPool(f, xs, profs, instr, opts, pool)
	if err != nil {
		t.Fatal(err)
	}
	// One build per value to find there is no key, one per cell to run.
	if got, want := calls.Load(), int64(len(xs)+len(xs)*len(profs)); got != want {
		t.Errorf("second run called the factory %d times, want %d (every cell simulated)", got, want)
	}
	if hits, misses, readErrs, puts := store.Counts(); hits+misses+readErrs+puts != 0 {
		t.Errorf("uncacheable sweep touched the store: %d/%d/%d/%d", hits, misses, readErrs, puts)
	}
	for i := range first {
		sameResults(t, "uncacheable rerun", second[i].Results, first[i].Results)
	}
}

// TestCacheFailingFactoryNamesCell: a factory error is derived once per
// suite but reported for the cell that was asked about, and the shard
// planner's error still names the x=value/benchmark cell.
func TestCacheFailingFactoryNamesCell(t *testing.T) {
	errBad := errors.New("bad geometry")
	profs := cacheBenchmarks(t, 3)
	bad := func(int) (predictor.Predictor, error) { return nil, errBad }
	cells := sweep.Cells(bad, []int{7}, profs, sim.Options{})
	for _, i := range []int{2, 0} {
		_, _, err := sim.CellKey(cells[i], 10_000)
		want := "sim: building predictor for " + profs[i].Name + ": x=7: bad geometry"
		if err == nil || err.Error() != want || !errors.Is(err, errBad) {
			t.Errorf("cell %d: error %v, want %q wrapping the factory's", i, err, want)
		}
	}

	_, err := shard.NewPlan(bad, []int{7}, profs, 10_000, sim.Options{})
	if want := "x=7/" + profs[0].Name; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("plan error %v, want it to name %s", err, want)
	}
}

// TestCacheConcurrentKeysShareOneBuild: CellKey called from several
// goroutines on cells that share a memo builds one predictor and hands
// every caller the same key.
func TestCacheConcurrentKeysShareOneBuild(t *testing.T) {
	f, calls := countingFactory(func(h int) (predictor.Predictor, error) { return ev8pred.NewGshare(1<<12, h) })
	cells := sweep.Cells(f, []int{10}, cacheBenchmarks(t, 8), sim.Options{Mode: ev8pred.ModeGhist()})
	keys := make([]cache.Key, len(cells))
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, ok, err := sim.CellKey(cells[i], 10_000)
			if err != nil || !ok {
				t.Errorf("cell %d: ok=%v err=%v", i, ok, err)
			}
			keys[i] = k
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("%d concurrent keyings called the factory %d times, want 1", len(cells), got)
	}
	for i, k := range keys {
		if k.Config != keys[0].Config {
			t.Errorf("cell %d: config key %q, want %q", i, k.Config, keys[0].Config)
		}
	}
}
