package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"ev8pred/internal/cache"
	"ev8pred/internal/core"
	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/report"
	"ev8pred/internal/sim"
	"ev8pred/internal/sweep"
	"ev8pred/internal/workload"
)

// sizes scales the workloads: the benchmark runs fullSizes, the smoke test
// a tiny copy with the same code paths.
type sizes struct {
	benchmarks   int   // how many of the eight benchmarks, in canonical order
	table1Instr  int64 // nominal instructions per benchmark (see budgeted)
	sweepInstr   int64
	delayedInstr int64
	prefixInstr  int64 // warm-up and BatchOff/EnsembleOff cross-check prefix
	serveJobs    int
	gridInstr    int64 // serve_mixed's precomputed 2bcg/history grid
	coldInstr    int64 // serve_mixed's cold jobs (plus the job index)
	setups       int   // set-ups per run; setup_s is their median
}

var fullSizes = sizes{
	benchmarks:   8,
	table1Instr:  10_000_000,
	sweepInstr:   4_000_000,
	delayedInstr: 4_000_000,
	prefixInstr:  500_000,
	serveJobs:    500,
	gridInstr:    1_000_000,
	coldInstr:    200_000,
	setups:       5,
}

// historyGrid is the 2bcg/history grid of sweep_2bcg_history and of the
// serve_mixed store: G1 history lengths 13, 15, ..., 27.
var historyGrid = []int{13, 15, 17, 19, 21, 23, 25, 27}

// workloadNames lists the workloads in run order.
var workloadNames = []string{"table1_ev8", "sweep_2bcg_history", "ev8_delayed_stats", "serve_mixed"}

// bench is one workload: set up (repeatably), timed passes, a traced
// round, and the untimed cross-checks.
type bench interface {
	// setup builds everything the first timed op needs, replacing what an
	// earlier setup built.
	setup() error
	// pass runs the workload once, closed loop.
	pass() (passResult, error)
	// tracedRound runs one round of the traced run: a pass, plus the
	// decomposition with spans on and off.
	tracedRound() (round, error)
	// cacheSet returns the keys and results the cache layer is timed on.
	cacheSet(last passResult) ([]cache.Key, []report.Run, error)
	// check runs the cross-checks after the timed passes.
	check(passes []passResult) error
	// extras returns per-layer values measured outside the rounds.
	extras() map[string]float64
	close()
}

// passResult is what one pass delivered and how long its ops took.
type passResult struct {
	wall    time.Duration
	runs    []report.Run    // every delivered cell, in delivery order
	jobs    []time.Duration // per user job — the whole experiment, or one served request; -1 if it failed
	units   []time.Duration // timed units: per cell (solo), per benchmark (ensemble), per request (serve), else the pass; -1 if it failed
	lanes   int             // unit i ran on lane i%lanes, after the lane's earlier units; 0 means one lane
	ops     int             // ops attempted: cells, or served requests
	failed  int             // ops that failed
	peakRSS float64         // MB, the process's peak resident set during the pass
	mallocs uint64          // heap allocations during the pass
	serve   *servePass      // serve_mixed's client-side detail
}

func (p passResult) branches() int64 {
	var n int64
	for _, r := range p.runs {
		n += r.Branches
	}
	return n
}

// mispki is the delivered cells' aggregate mispredictions per 1000
// instructions.
func (p passResult) mispki() float64 {
	var m, i int64
	for _, r := range p.runs {
		m += r.Mispredicts
		i += r.Instructions
	}
	if i == 0 {
		return 0
	}
	return 1000 * float64(m) / float64(i)
}

// digest is the SHA-256 of the delivered runs as JSON.
func (p passResult) digest() (string, error) {
	data, err := json.Marshal(p.runs)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// round is one traced round: named per-layer values, the pass it timed
// alongside, and the spans it recorded.
type round struct {
	values  map[string]float64
	pass    passResult
	tracers []*tracer
}

// schedule is how a sim workload drives the simulator.
type schedule int

const (
	solo     schedule = iota // sim.RunBenchmark per cell, one after another
	ensemble                 // sim.RunEnsembleBenchmark per benchmark, one after another
	pool                     // sim.RunCells over every cell at nproc workers
)

// simBench is a workload made of simulation cells.
type simBench struct {
	sched       schedule
	instr       int64 // nominal instructions per benchmark
	sz          sizes
	seed        int64
	cells       []sim.Cell // the timed cells
	prefixCells []sim.Cell // the same cells over a prefix
	build       func(profs []workload.Profile) []sim.Cell
	prefix      []report.Run // the warm-up's results, for the prefix cross-check
}

// condPerMInstr is each benchmark's conditional branches per million
// instructions, counted over the first 10M instructions of its canonical
// profile.
var condPerMInstr = map[string]int64{
	"compress": 114400, "gcc": 157001, "go": 113108, "ijpeg": 81661,
	"li": 140714, "m88ksim": 114678, "perl": 73686, "vortex": 120993,
}

// budgeted sets each cell's MaxBranches to the count its canonical
// benchmark reaches in instr instructions. A seed changes the programs,
// and with them how many branches an instruction budget holds; a branch
// budget keeps the work of a pass the same for every seed. Generators
// then run unbounded (instruction budget 0) and MaxBranches ends them.
func budgeted(cells []sim.Cell, instr int64) []sim.Cell {
	out := make([]sim.Cell, len(cells))
	for i, c := range cells {
		c.Opts.MaxBranches = instr * condPerMInstr[c.Profile.Name] / 1_000_000
		out[i] = c
	}
	return out
}

// perturb returns the benchmark profiles with their seeds moved by seed,
// so each benchmark seed gives other programs and streams of the same
// calibrated character.
func perturb(n int, seed int64) []workload.Profile {
	profs := workload.Benchmarks()[:n]
	z := uint64(seed) + 0x9e3779b97f4a7c15 // splitmix64
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	for i := range profs {
		profs[i].Seed ^= z
	}
	return profs
}

func newSimBench(name string, sz sizes, seed int64) *simBench {
	ev8f := func() (predictor.Predictor, error) { return ev8.New(ev8.DefaultConfig()) }
	b := &simBench{sz: sz, seed: seed}
	switch name {
	case "table1_ev8":
		b.sched, b.instr = solo, sz.table1Instr
		b.build = func(profs []workload.Profile) []sim.Cell {
			return sim.SuiteCells(ev8f, profs, sim.Options{Mode: frontend.ModeEV8()})
		}
	case "sweep_2bcg_history":
		b.sched, b.instr = pool, sz.sweepInstr
		b.build = func(profs []workload.Profile) []sim.Cell {
			f, _ := sweep.FamilyFactory("2bcg", "history")
			return sweep.Cells(f, historyGrid, profs, sim.Options{Mode: frontend.ModeGhist()})
		}
	case "ev8_delayed_stats":
		b.sched, b.instr = ensemble, sz.delayedInstr
		b.build = func(profs []workload.Profile) []sim.Cell {
			opts := sim.Options{Mode: frontend.ModeEV8(), UpdateDelay: 8, Collect: true}
			var cells []sim.Cell
			for _, prof := range profs {
				cells = append(cells,
					sim.Cell{Factory: ev8f, Profile: prof, Opts: opts},
					sim.Cell{Factory: func() (predictor.Predictor, error) { return core.New(core.ConfigEV8Size()) }, Profile: prof, Opts: opts})
			}
			return cells
		}
	default:
		return nil
	}
	return b
}

// groups splits the cells by benchmark, in first-appearance order: the
// per-stream unit of the ensemble schedule and of the decomposition.
func (b *simBench) groups() [][]int {
	index := map[string]int{}
	var gs [][]int
	for i, c := range b.cells {
		gi, ok := index[c.Profile.Name]
		if !ok {
			gi = len(gs)
			index[c.Profile.Name] = gi
			gs = append(gs, nil)
		}
		gs[gi] = append(gs[gi], i)
	}
	return gs
}

func (b *simBench) setup() error {
	cells := b.build(perturb(b.sz.benchmarks, b.seed))
	b.cells, b.prefixCells = budgeted(cells, b.instr), budgeted(cells, b.sz.prefixInstr)
	// The warm-up runs every cell over a prefix through the timed
	// schedule, so code, heap and predictor allocation are warm before
	// the first timed op; its results feed the prefix cross-check.
	p, err := b.run(b.prefixCells, 0)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	b.prefix = p.runs
	return nil
}

func (b *simBench) pass() (passResult, error) { return b.run(b.cells, 0) }

// run executes cells through the workload's schedule; workers overrides
// the pool's worker count (0: one per CPU).
func (b *simBench) run(cells []sim.Cell, workers int) (passResult, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	res := make([]sim.Result, len(cells))
	var units []time.Duration
	start := time.Now()
	if b.sched == pool {
		var err error
		res, err = sim.RunCells(context.Background(), cells, 0, sim.PoolOptions{Workers: workers})
		if err != nil {
			return passResult{}, err
		}
	} else {
		for _, g := range b.groups() {
			us, err := b.runGroup(cells, g, res)
			if err != nil {
				return passResult{}, err
			}
			units = append(units, us...)
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms)
	if b.sched == pool {
		units = []time.Duration{wall}
	}
	return b.passOf(res, wall, units, ms.Mallocs-before), nil
}

// passOf assembles a pass: the user's job is the whole experiment.
func (b *simBench) passOf(res []sim.Result, wall time.Duration, units []time.Duration, mallocs uint64) passResult {
	return passResult{wall: wall, runs: report.FromResults(res), jobs: []time.Duration{wall},
		units: units, ops: len(res), mallocs: mallocs}
}

// runGroup runs one benchmark's cells serially, the way the workload's
// schedule does: sim.RunBenchmark per cell (solo), or one
// sim.RunEnsembleBenchmark, which is also what the pool runs per
// benchmark. It fills the group's entries of res and returns the timed
// units — each cell of the solo schedule, the whole group otherwise.
func (b *simBench) runGroup(cells []sim.Cell, g []int, res []sim.Result) ([]time.Duration, error) {
	var units []time.Duration
	if b.sched == solo {
		for _, i := range g {
			t := time.Now()
			c := cells[i]
			p, err := c.Factory()
			if err != nil {
				return nil, err
			}
			if res[i], err = sim.RunBenchmark(p, c.Profile, 0, c.Opts); err != nil {
				return nil, err
			}
			units = append(units, time.Since(t))
		}
		return units, nil
	}
	t := time.Now()
	c := cells[g[0]]
	rs, err := sim.RunEnsembleBenchmark(b.factories(g), c.Profile, 0, c.Opts)
	if err != nil {
		return nil, err
	}
	for k, i := range g {
		res[i] = rs[k]
	}
	return []time.Duration{time.Since(t)}, nil
}

func (b *simBench) factories(g []int) []sim.Factory {
	fs := make([]sim.Factory, len(g))
	for k, i := range g {
		fs[k] = b.cells[i].Factory
	}
	return fs
}

// tracedRound runs, per benchmark, the workload's own serial call and the
// decomposition with spans on and off, so all three see the same machine
// conditions; the pool workload first adds its scaling passes.
func (b *simBench) tracedRound() (round, error) {
	v := map[string]float64{}
	if b.sched == pool {
		p, err := b.pass()
		if err != nil {
			return round{}, err
		}
		one, err := b.run(b.cells, 1)
		if err != nil {
			return round{}, err
		}
		v["pool.scaling_eff"] = float64(one.wall) / (float64(runtime.GOMAXPROCS(0)) * float64(p.wall))
		start := time.Now()
		if _, err := sim.RunCells(context.Background(), b.cells, 0, sim.PoolOptions{Ensemble: sim.EnsembleOff}); err != nil {
			return round{}, err
		}
		v["ensemble.amortization"] = float64(time.Since(start)) / float64(p.wall)
	}

	tr := newTracer(time.Now(), 0)
	res := make([]sim.Result, len(b.cells))
	var units []time.Duration
	var serial, on, off time.Duration
	var mallocs uint64
	var total decomposed
	for op, g := range b.groups() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t := time.Now()
		us, err := b.runGroup(b.cells, g, res)
		if err != nil {
			return round{}, err
		}
		serial += time.Since(t)
		units = append(units, us...)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		c := b.cells[g[0]]
		// Spans on and off alternate which goes first, so a drift in the
		// machine's speed cancels out of the overhead.
		for k := 0; k < 2; k++ {
			traced := (op+k)%2 == 0
			var t2 *tracer
			if traced {
				t2 = tr
			}
			t := time.Now()
			d, err := decomposeGroup(t2, op, c.Profile, 0, b.factories(g), c.Opts)
			if err != nil {
				return round{}, fmt.Errorf("decomposing %s: %w", c.Profile.Name, err)
			}
			if !traced {
				off += time.Since(t)
				continue
			}
			on += time.Since(t)
			for k, i := range g {
				if !reflect.DeepEqual(report.FromResult(d.results[k]), report.FromResult(res[i])) {
					return round{}, fmt.Errorf("%s on %s: decomposition results differ from the simulator's", res[i].Predictor, c.Profile.Name)
				}
			}
			total.records += d.records
			total.blocks += d.blocks
			total.branches += d.branches
		}
	}
	p := b.passOf(res, serial, units, mallocs)
	cellBranches := float64(p.branches())
	v["sim.allocs_per_branch"] = float64(mallocs) / cellBranches
	v["trace.overhead_ns_per_branch"] = float64(on-off) / cellBranches
	addLayers(v, selfTimes(tr.spans), cellBranches, float64(serial.Nanoseconds())/cellBranches)
	v["workload.records_per_branch"] = float64(total.records) / float64(total.branches)
	v["frontend.blocks_per_branch"] = float64(total.blocks) / float64(total.branches)
	return round{values: v, pass: p, tracers: []*tracer{tr}}, nil
}

// addLayers converts span self times into per-branch layer metrics over
// denom branches; e2e is the untraced ns per branch the layers split.
func addLayers(v map[string]float64, self map[string]int64, denom, e2e float64) {
	attributed := 0.0
	pred := 0.0
	for name, ns := range self {
		x := float64(ns) / denom
		switch name {
		case spanGroup:
			continue
		case spanGen, spanWalk:
		default:
			pred += x
		}
		v[name+"_ns_per_branch"] = x
		attributed += x
	}
	v["predictor.ns_per_branch"] = pred
	v["sim.unattributed_ns_per_branch"] = e2e - attributed
}

func (b *simBench) cacheSet(last passResult) ([]cache.Key, []report.Run, error) {
	keys := make([]cache.Key, len(b.cells))
	for i, c := range b.cells {
		k, ok, err := sim.CellKey(c, 0)
		if err != nil || !ok {
			return nil, nil, fmt.Errorf("keying cell %d: ok=%v err=%v", i, ok, err)
		}
		keys[i] = k
	}
	return keys, last.runs, nil
}

func (b *simBench) check(passes []passResult) error {
	if err := samePasses(passes); err != nil {
		return err
	}
	cells := make([]sim.Cell, len(b.prefixCells))
	for i, c := range b.prefixCells {
		c.Opts.Batch = sim.BatchOff
		cells[i] = c
	}
	rs, err := sim.RunCells(context.Background(), cells, 0, sim.PoolOptions{Ensemble: sim.EnsembleOff})
	if err != nil {
		return fmt.Errorf("prefix under BatchOff/EnsembleOff: %w", err)
	}
	if !reflect.DeepEqual(report.FromResults(rs), b.prefix) {
		return fmt.Errorf("prefix results differ under BatchOff/EnsembleOff")
	}
	return nil
}

func (b *simBench) extras() map[string]float64 { return nil }

func (b *simBench) close() {}

// samePasses checks that every pass delivered identical results.
func samePasses(passes []passResult) error {
	var first string
	for i, p := range passes {
		d, err := p.digest()
		if err != nil {
			return err
		}
		if i == 0 {
			first = d
		} else if d != first {
			return fmt.Errorf("pass %d results differ from pass 0 (sha256 %.12s vs %.12s)", i, d, first)
		}
	}
	return nil
}
