// Parallel execution layer: a bounded worker pool that fans independent
// simulation cells — one (predictor factory, benchmark profile) pair per
// cell — out across the CPUs and reassembles the results in input order,
// so parallel output is byte-identical to serial output.
//
// The unit of parallelism here is always a whole simulated stream. One
// cell is one cold predictor over one deterministic workload, so cells
// share no mutable state; within a cell, instruction order is
// architectural state, records are never reordered and the stream is
// consumed serially (see DESIGN.md). Outside pool jobs a stream's
// generator alone runs ahead on a second CPU (pipeline.go); pool jobs
// keep it inline, because the fan-out already fills the CPUs. Every
// suite-level driver (the sweep harness, the experiment generators, the
// daemon) routes through RunCells, whose PoolOptions are the one place a
// fan-out's schedule is set; Workers == 1 forces the serial path for
// debugging.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ev8pred/internal/cache"
	"ev8pred/internal/workload"
)

// DefaultWorkers is the worker count used when Workers is 0: one worker
// per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// EnsembleMode selects how RunCells schedules cells that share a
// workload: independently (one simulated stream per cell) or grouped
// into single-pass ensembles (one simulated stream per benchmark, shared
// by every predictor configuration over it — see RunEnsemble). Results
// are byte-identical in both modes; only the work schedule changes.
type EnsembleMode uint8

const (
	// EnsembleAuto (the zero value) groups cells into per-workload
	// ensembles when the fan-out is wider than the worker count
	// (otherwise per-cell parallelism already uses every core).
	EnsembleAuto EnsembleMode = iota
	// EnsembleOff always simulates every cell independently: the
	// reference schedule of the differential suites.
	EnsembleOff
)

// CellDone describes one completed cell of a suite-level run.
type CellDone struct {
	// Index is the cell's position in input order.
	Index int
	// Done counts completed cells (including this one); Total is the
	// fan-out size.
	Done, Total int
	// Predictor and Workload identify the completed cell so a live
	// progress view (CLI counter, expvar page) can say *which* cell
	// finished, not just how many have.
	Predictor string
	Workload  string
	// Branches, Mispredicts and Instructions are the cell's measured
	// totals.
	Branches     int64
	Mispredicts  int64
	Instructions int64
}

// ProgressFunc observes cell completions. Events arrive in completion
// order, not input order, and Done is monotone; the pool serializes
// calls, so implementations need no locking of their own.
type ProgressFunc func(CellDone)

// PoolOptions configures one fan-out through the pool.
type PoolOptions struct {
	// Workers bounds concurrent jobs — a job is one cell, or one group of
	// cells run as an ensemble: 0 = one per CPU (DefaultWorkers), 1 =
	// serial (the debugging path, no extra goroutines), N = at most N in
	// flight.
	Workers int
	// Progress, if non-nil, receives one event per completed cell.
	Progress ProgressFunc
	// Ensemble selects per-cell vs grouped single-pass scheduling for
	// cells that share a workload (see EnsembleMode). The zero value
	// (EnsembleAuto) groups only when the amortization can win;
	// EnsembleOff is the differential suites' reference.
	Ensemble EnsembleMode
	// Cache, if non-nil, answers cells from the content-addressed result
	// store before simulating and stores fresh results after (see
	// docs/CACHING.md). Cells whose predictors expose no canonical
	// configuration key are simulated unconditionally.
	Cache *cache.Store
	// Log, if non-nil, receives harness diagnostics — a corrupt cache
	// entry being refused and recomputed, a result that could not be
	// stored. Nil discards them; correctness never depends on Log.
	Log func(format string, args ...interface{})
}

// Cell is one independent simulation job: a cold predictor from Factory
// run over Profile under Opts. The enclosing fan-out's PoolOptions decide
// how the cell is scheduled.
//
// Cells built by SuiteCells, and copies of them, share one memo of
// their factory's configuration key (see CellKey). Replacing Factory on
// such a copy would key it by the old factory; build a new Cell instead.
type Cell struct {
	Factory Factory
	Profile workload.Profile
	Opts    Options

	memo *configMemo
}

// RunCells simulates every cell with at most pool.Workers jobs in flight
// and returns the results in cell order. The first error (including a
// panic inside a cell, converted to an error) cancels the context handed
// to outstanding jobs and wins; queued jobs that have not started are
// skipped. A nil ctx is treated as context.Background().
//
// Each job is one group of cells run as a single-pass ensemble over
// their shared benchmark stream (see ensembleGroups). Cells sharing a
// (workload, options) pair are grouped under pool.Ensemble — the default
// EnsembleAuto groups exactly when the fan-out exceeds the workers — so
// a K-point sweep advances each benchmark stream once instead of K
// times; every other cell is a group of one. Grouping changes only the
// schedule: results, their order, and the per-cell Progress events are
// the same either way.
func RunCells(ctx context.Context, cells []Cell, instrBudget int64, pool PoolOptions) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if pool.Cache != nil {
		return runCellsCached(ctx, cells, instrBudget, pool)
	}
	groups := ensembleGroups(cells, pool)
	var (
		mu   sync.Mutex
		done int
	)
	jobs := make([]func(context.Context) ([]Result, error), len(groups))
	for gi, g := range groups {
		jobs[gi] = func(jctx context.Context) ([]Result, error) {
			factories := make([]Factory, len(g.cells))
			for k, ci := range g.cells {
				factories[k] = cells[ci].Factory
			}
			// The pool's job context flows into the stream (see cancel.go),
			// so canceling the fan-out — first error, caller gave up, daemon
			// draining — interrupts a group mid-run instead of only between
			// groups.
			rs, err := runEnsembleBenchmarkCtx(jctx, factories, g.prof, instrBudget, g.opts)
			if err != nil {
				return nil, fmt.Errorf("sim: running %s: %w", g.prof.Name, err)
			}
			if pool.Progress != nil {
				mu.Lock()
				for k, r := range rs {
					done++
					pool.Progress(cellDone(g.cells[k], done, len(cells), r))
				}
				mu.Unlock()
			}
			return rs, nil
		}
	}
	grouped, err := Parallel(ctx, pool.Workers, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(cells))
	for gi, g := range groups {
		for k, ci := range g.cells {
			out[ci] = grouped[gi][k]
		}
	}
	return out, nil
}

// cellDone is the Progress event of cell index, the done-th of total to
// complete, with result r.
func cellDone(index, done, total int, r Result) CellDone {
	return CellDone{
		Index: index, Done: done, Total: total,
		Predictor: r.Predictor, Workload: r.Workload,
		Branches: r.Branches, Mispredicts: r.Mispredicts,
		Instructions: r.Instructions,
	}
}

// cellGroup is one job of the pool: the cells (input positions) that
// share one workload and one option set and run as one ensemble.
type cellGroup struct {
	prof  workload.Profile
	opts  Options
	cells []int
}

// ensembleGroups partitions cells into the pool's jobs, in
// first-appearance order. Under EnsembleAuto, when the fan-out is wider
// than the worker count, cells that share a (workload, options) pair go
// into one group; otherwise per-cell parallelism already fills the
// machine and finishes no later. Every other cell — under EnsembleOff,
// under a fan-out that fits the workers, or with no workload shared — is
// a group of one.
func ensembleGroups(cells []Cell, pool PoolOptions) []cellGroup {
	workers := pool.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	group := pool.Ensemble != EnsembleOff && len(cells) > workers
	type key struct {
		prof workload.Profile
		opts Options
	}
	index := make(map[key]int)
	groups := make([]cellGroup, 0, len(cells))
	for i, c := range cells {
		k := key{c.Profile, c.Opts}
		gi, ok := index[k]
		if !ok {
			gi = len(groups)
			groups = append(groups, cellGroup{prof: c.Profile, opts: c.Opts})
			if group {
				index[k] = gi
			}
		}
		groups[gi].cells = append(groups[gi].cells, i)
	}
	return groups
}

// SuiteCells builds one cell per profile, all sharing factory and opts —
// one predictor configuration over a benchmark suite. The cells share
// one configuration key, so keying them all builds one predictor.
func SuiteCells(factory Factory, profs []workload.Profile, opts Options) []Cell {
	cells := make([]Cell, len(profs))
	memo := new(configMemo)
	for i, prof := range profs {
		cells[i] = Cell{Factory: factory, Profile: prof, Opts: opts, memo: memo}
	}
	return cells
}

// Parallel runs jobs with at most workers goroutines (0 = DefaultWorkers,
// 1 = serial in the calling goroutine) and returns the results in job
// order, so output does not depend on scheduling. The first job error
// cancels the context passed to the remaining jobs and is the error
// returned; a panic inside a job is converted to an error instead of
// crashing the process. A nil ctx is treated as context.Background().
func Parallel[T any](ctx context.Context, workers int, jobs []func(context.Context) (T, error)) ([]T, error) {
	out := make([]T, len(jobs))
	if len(jobs) == 0 {
		return out, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers == 1 {
		for i, job := range jobs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := runJob(ctx, i, job)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				v, err := runJob(ctx, i, jobs[i])
				if err != nil {
					fail(err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// runJob invokes one job, converting a panic into an error so a bad cell
// fails the fan-out instead of killing the process. While it runs, the
// streams of the process are not pipelined (see pipelining).
func runJob[T any](ctx context.Context, i int, job func(context.Context) (T, error)) (v T, err error) {
	poolJobs.Add(1)
	defer poolJobs.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: job %d panicked: %v", i, r)
		}
	}()
	return job(ctx)
}
