package ev8pred_test

// Cache correctness suite for the content-addressed result cache
// (internal/cache + the RunCells integration): a cache hit must be
// byte-identical to recomputation, near-miss keys must miss, corruption
// must fall back to recomputation with a typed error surfaced through the
// Log hook, a warm repeated sweep must re-run with zero simulation work,
// and uncacheable configurations must bypass the store entirely.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ev8pred"
	"ev8pred/internal/cache"
	"ev8pred/internal/core"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/sim"
	"ev8pred/internal/sweep"
	"ev8pred/internal/workload"
)

// cacheCells builds a small mixed fan-out: two cacheable families over
// two benchmarks, with attribution collection on (so Stats rides the
// cache too).
func cacheCells(t *testing.T) []sim.Cell {
	t.Helper()
	gcc, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	goProf, err := ev8pred.BenchmarkByName("go")
	if err != nil {
		t.Fatal(err)
	}
	gshareFac := func() (predictor.Predictor, error) { return ev8pred.NewGshare(1<<12, 12) }
	coreFac := func() (predictor.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.Config256K()) }
	opts := sim.Options{Mode: ev8pred.ModeGhist(), UpdateDelay: 2, Warmup: 200, Collect: true}
	var cells []sim.Cell
	for _, prof := range []workload.Profile{gcc, goProf} {
		cells = append(cells,
			sim.Cell{Factory: gshareFac, Profile: prof, Opts: opts},
			sim.Cell{Factory: coreFac, Profile: prof, Opts: opts})
	}
	return cells
}

// sameResults asserts element-wise bit-identity of two result slices.
func sameResults(t *testing.T, label string, got, want []sim.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		sameResult(t, label, got[i], want[i])
	}
}

// TestCacheHitMatchesRecompute is the headline differential: a warm run
// answered from the store returns results byte-identical to the cold run
// that computed them — core fields and attribution counters both.
func TestCacheHitMatchesRecompute(t *testing.T) {
	const instr = 60_000
	cells := cacheCells(t)
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := sim.PoolOptions{Workers: 2, Cache: store}
	cold, err := sim.RunCells(context.Background(), cells, instr, pool)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _, puts := store.Counts(); hits != 0 || misses != int64(len(cells)) || puts != int64(len(cells)) {
		t.Fatalf("cold run counts = %d/%d/%d, want 0/%d/%d", hits, misses, puts, len(cells), len(cells))
	}
	warm, err := sim.RunCells(context.Background(), cells, instr, pool)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _, _, _ := store.Counts(); hits != int64(len(cells)) {
		t.Fatalf("warm run scored %d hits, want %d", hits, len(cells))
	}
	sameResults(t, "warm vs cold", warm, cold)

	// And both must match an uncached run.
	bare, err := sim.RunCells(context.Background(), cells, instr, sim.PoolOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "cached vs uncached", cold, bare)
}

// TestCacheNearMissKeys pins key sensitivity: changing any
// result-affecting input — budget, warmup, update delay, information
// vector, Collect, predictor geometry, workload profile — must miss, not
// serve the neighboring entry.
func TestCacheNearMissKeys(t *testing.T) {
	const instr = 30_000
	prof, err := ev8pred.BenchmarkByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	fac := func() (predictor.Predictor, error) { return ev8pred.NewGshare(1<<12, 12) }
	base := sim.Cell{Factory: fac, Profile: prof,
		Opts: sim.Options{Mode: ev8pred.ModeGhist(), UpdateDelay: 2, Warmup: 100}}

	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := sim.PoolOptions{Workers: 1, Cache: store}
	if _, err := sim.RunCells(context.Background(), []sim.Cell{base}, instr, pool); err != nil {
		t.Fatal(err)
	}

	profSeed := prof
	profSeed.Seed++
	delay := base
	delay.Opts.UpdateDelay = 3
	warm := base
	warm.Opts.Warmup = 101
	mode := base
	mode.Opts.Mode = ev8pred.ModeLghist()
	collect := base
	collect.Opts.Collect = true
	geom := base
	geom.Factory = func() (predictor.Predictor, error) { return ev8pred.NewGshare(1<<13, 12) }
	seed := base
	seed.Profile = profSeed

	near := map[string]struct {
		cell  sim.Cell
		instr int64
	}{
		"budget":   {base, instr + 1},
		"delay":    {delay, instr},
		"warmup":   {warm, instr},
		"mode":     {mode, instr},
		"collect":  {collect, instr},
		"geometry": {geom, instr},
		"profile":  {seed, instr},
	}
	for name, n := range near {
		_, missesBefore, _, _ := store.Counts()
		if _, err := sim.RunCells(context.Background(), []sim.Cell{n.cell}, n.instr, pool); err != nil {
			t.Fatal(err)
		}
		hits, missesAfter, _, _ := store.Counts()
		if hits != 0 {
			t.Fatalf("%s: near-miss key served a stale hit", name)
		}
		if missesAfter != missesBefore+1 {
			t.Fatalf("%s: miss count %d -> %d, want +1", name, missesBefore, missesAfter)
		}
	}

	// The original key still hits after all the neighbors were stored.
	if _, err := sim.RunCells(context.Background(), []sim.Cell{base}, instr, pool); err != nil {
		t.Fatal(err)
	}
	if hits, _, _, _ := store.Counts(); hits != 1 {
		t.Fatalf("exact re-run scored %d hits, want 1", hits)
	}
}

// TestCacheCorruptFallback pins the degraded path end to end: a corrupted
// entry is refused with an error surfaced through the pool's Log hook,
// the cell is recomputed to the same bytes, and the bad entry is replaced
// so the next run hits again.
func TestCacheCorruptFallback(t *testing.T) {
	const instr = 30_000
	prof, err := ev8pred.BenchmarkByName("ijpeg")
	if err != nil {
		t.Fatal(err)
	}
	cells := []sim.Cell{{
		Factory: func() (predictor.Predictor, error) { return ev8pred.NewGshare(1<<12, 12) },
		Profile: prof,
		Opts:    sim.Options{Mode: ev8pred.ModeGhist(), Warmup: 100, Collect: true},
	}}
	dir := t.TempDir()
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool := sim.PoolOptions{Workers: 1, Cache: store}
	cold, err := sim.RunCells(context.Background(), cells, instr, pool)
	if err != nil {
		t.Fatal(err)
	}

	paths, err := filepath.Glob(filepath.Join(dir, "*.ev8c"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("entry files: %v (err %v)", paths, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	pool.Log = func(format string, args ...interface{}) {
		logged = append(logged, strings.TrimSpace(format))
	}
	recomputed, err := sim.RunCells(context.Background(), cells, instr, pool)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "recompute after corruption", recomputed, cold)
	if len(logged) == 0 || !strings.Contains(logged[0], "cache") {
		t.Errorf("corruption not surfaced through Log: %q", logged)
	}
	if _, misses, _, puts := store.Counts(); misses != 2 || puts != 2 {
		t.Errorf("counts after corruption = misses %d puts %d, want 2/2 (refused entry recomputed and re-stored)", misses, puts)
	}

	pool.Log = nil
	again, err := sim.RunCells(context.Background(), cells, instr, pool)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "hit after re-store", again, cold)
	if hits, _, _, _ := store.Counts(); hits != 1 {
		t.Errorf("re-stored entry did not hit (hits=%d)", hits)
	}
}

// TestSweepWarmCacheZeroWork is the acceptance gate: a repeated 8-config
// sweep against a warm cache re-runs with zero simulation work — every
// cell a hit, nothing recomputed, nothing stored — and byte-identical
// points.
func TestSweepWarmCacheZeroWork(t *testing.T) {
	const instr = 50_000
	dir := t.TempDir()
	xs := []int{8, 10, 12, 14}
	gcc, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	goProf, err := ev8pred.BenchmarkByName("go")
	if err != nil {
		t.Fatal(err)
	}
	profs := []workload.Profile{gcc, goProf} // 4 values x 2 benchmarks = 8 cells
	factory := func(h int) (predictor.Predictor, error) { return ev8pred.NewGshare(1<<12, h) }
	opts := sim.Options{Mode: ev8pred.ModeGhist(), Warmup: 200}

	run := func(store *cache.Store) []sweep.Point {
		t.Helper()
		pts, err := sweep.RunPool(factory, xs, profs, instr, opts,
			sim.PoolOptions{Workers: 2, Ensemble: sim.EnsembleOn, Cache: store})
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}

	coldStore, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := run(coldStore)
	if hits, misses, _, puts := coldStore.Counts(); hits != 0 || misses != 8 || puts != 8 {
		t.Fatalf("cold sweep counts = %d/%d/%d, want 0/8/8", hits, misses, puts)
	}

	// A fresh Store over the same directory: its counters start at zero,
	// so they measure exactly the warm re-run.
	warmStore, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := run(warmStore)
	hits, misses, readErrs, puts := warmStore.Counts()
	if hits != 8 || misses != 0 || readErrs != 0 || puts != 0 {
		t.Fatalf("warm sweep counts = %d/%d/%d, want 8/0/0 (zero simulation work)", hits, misses, puts)
	}
	for i := range cold {
		if cold[i].X != warm[i].X || cold[i].Mean != warm[i].Mean {
			t.Fatalf("point %d diverged: cold %+v warm %+v", i, cold[i], warm[i])
		}
		sameResults(t, "warm sweep point", warm[i].Results, cold[i].Results)
	}
}

// TestCacheCrossProcessSharing is the multi-process differential: two
// independent Store handles over ONE directory (the two-process topology
// sharded sweeps run in, docs/SHARDING.md) race the same 8-cell sweep
// concurrently. Both must finish with points byte-identical to a serial
// uncached run, neither may observe a corrupt or unreadable entry, and
// no Put may be lost — a warm re-run afterwards answers every cell from
// the store.
func TestCacheCrossProcessSharing(t *testing.T) {
	const instr = 50_000
	dir := t.TempDir()
	xs := []int{8, 10, 12, 14}
	gcc, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	goProf, err := ev8pred.BenchmarkByName("go")
	if err != nil {
		t.Fatal(err)
	}
	profs := []workload.Profile{gcc, goProf} // 4 values x 2 benchmarks = 8 cells
	factory := func(h int) (predictor.Predictor, error) { return ev8pred.NewGshare(1<<12, h) }
	opts := sim.Options{Mode: ev8pred.ModeGhist(), Warmup: 200}

	serial, err := sweep.RunPool(factory, xs, profs, instr, opts, sim.PoolOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	const procs = 2
	stores := make([]*cache.Store, procs)
	points := make([][]sweep.Point, procs)
	logs := make([][]string, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		stores[p], err = cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var mu sync.Mutex
			pool := sim.PoolOptions{Workers: 2, Cache: stores[p], Log: func(format string, args ...interface{}) {
				mu.Lock()
				logs[p] = append(logs[p], fmt.Sprintf(format, args...))
				mu.Unlock()
			}}
			points[p], errs[p] = sweep.RunPool(factory, xs, profs, instr, opts, pool)
		}(p)
	}
	wg.Wait()

	for p := 0; p < procs; p++ {
		if errs[p] != nil {
			t.Fatalf("store %d sweep: %v", p, errs[p])
		}
		for i := range serial {
			if points[p][i].X != serial[i].X || points[p][i].Mean != serial[i].Mean {
				t.Fatalf("store %d point %d diverged: %+v vs serial %+v", p, i, points[p][i], serial[i])
			}
			sameResults(t, fmt.Sprintf("store %d point %d", p, i), points[p][i].Results, serial[i].Results)
		}
		hits, misses, readErrs, puts := stores[p].Counts()
		if readErrs != 0 {
			t.Errorf("store %d observed %d read errors racing a sibling", p, readErrs)
		}
		if hits+misses != 8 || puts != misses {
			t.Errorf("store %d counts = %d hits, %d misses, %d puts; want hits+misses=8 and one put per miss", p, hits, misses, puts)
		}
		for _, line := range logs[p] {
			t.Errorf("store %d surfaced a diagnostic racing a sibling: %q", p, line)
		}
	}

	// No lost Puts: a fresh handle answers the whole sweep from the store.
	warmStore, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sweep.RunPool(factory, xs, profs, instr, opts, sim.PoolOptions{Workers: 2, Cache: warmStore})
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, readErrs, puts := warmStore.Counts(); hits != 8 || misses != 0 || readErrs != 0 || puts != 0 {
		t.Errorf("warm re-run counts = %d/%d/%d/%d, want 8/0/0/0 (a concurrent Put was lost)", hits, misses, readErrs, puts)
	}
	for i := range serial {
		sameResults(t, fmt.Sprintf("warm point %d", i), warm[i].Results, serial[i].Results)
	}
}

// TestUncacheableCellsBypassStore pins the opt-out: a 2Bc-gskew core with
// caller-supplied index functions reports no canonical key, so its cells
// simulate unconditionally and never touch the store — correct results,
// empty cache.
func TestUncacheableCellsBypassStore(t *testing.T) {
	const instr = 30_000
	prof, err := ev8pred.BenchmarkByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	custom := func() (predictor.Predictor, error) {
		cfg := core.Config256K()
		std := core.MustNew(cfg).Config().Indexes
		cfg.Indexes = func(info *history.Info) [core.NumBanks]uint64 { return std(info) }
		cfg.Name = "2bcg-custom-idx"
		return core.New(cfg)
	}
	cells := []sim.Cell{{Factory: custom, Profile: prof, Opts: sim.Options{Mode: ev8pred.ModeGhist()}}}
	dir := t.TempDir()
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool := sim.PoolOptions{Workers: 1, Cache: store}
	first, err := sim.RunCells(context.Background(), cells, instr, pool)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sim.RunCells(context.Background(), cells, instr, pool)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "uncacheable rerun", second, first)
	if hits, misses, readErrs, puts := store.Counts(); hits != 0 || misses != 0 || readErrs != 0 || puts != 0 {
		t.Errorf("uncacheable cells touched the store: %d/%d/%d/%d", hits, misses, readErrs, puts)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Errorf("store not empty: %v", files)
	}
}
