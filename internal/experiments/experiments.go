// Package experiments regenerates every table and figure of the paper's
// evaluation section (§8). Each experiment is a named, self-contained
// function from a Config (instruction budget + benchmark list) to a
// report.Table whose rows mirror the paper's presentation; cmd/ev8bench is
// a thin driver over this package and bench_test.go wraps each experiment
// in a testing.B benchmark.
//
// Absolute misp/KI values are not expected to match the paper (the
// workloads are calibrated synthetic substitutes for the SPECINT95
// traces, see DESIGN.md §1); the SHAPE of each table — orderings,
// crossovers, sign and rough magnitude of deltas — is the reproduction
// target, and EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"ev8pred/internal/report"
	"ev8pred/internal/shard"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

// Config scopes an experiment run.
type Config struct {
	// Instructions is the per-benchmark synthetic instruction budget.
	// The paper uses 100M; the default harness uses 10M, which preserves
	// every qualitative result at ~10x the speed.
	Instructions int64
	// Benchmarks is the profile list (defaults to the full Table 2 set).
	Benchmarks []workload.Profile
	// Pool schedules every generator's fan-out (see sim.PoolOptions): its
	// worker count, ensemble mode, progress hook (cmd/ev8bench -v wires a
	// throughput counter here), result store (-cache, docs/CACHING.md)
	// and diagnostics log. Rendered tables are byte-identical for every
	// worker count and ensemble mode.
	Pool sim.PoolOptions
	// Shard, when its Count is above 1, turns the run into one worker of a
	// sharded precompute (docs/SHARDING.md): the cell-based fan-outs — the
	// (factory × benchmark) grids behind the tables and figures — simulate
	// only the cells the shard owns, assigned by the same stable hash of
	// the cells' cache keys the sweep sharding layer uses
	// (internal/shard), and hand their results to the other participants
	// through the shared Pool.Cache (required). Cells a worker skips come
	// back as zero Results, so a worker's tables are cache fuel, not
	// reading material; a final unsharded run over the same store renders
	// every table from hits alone. Generators that are not plain cell
	// grids (SMT interleavings, front-end measurements, trace statistics)
	// run in full on every worker. The zero value and a Count of 1 mean
	// unsharded.
	Shard shard.Spec
}

// Default returns the standard harness configuration.
func Default() Config {
	return Config{Instructions: 10_000_000, Benchmarks: workload.Benchmarks()}
}

// Quick returns a scaled-down configuration for smoke tests and
// testing.B benchmarks.
func Quick() Config {
	return Config{Instructions: 1_000_000, Benchmarks: workload.Benchmarks()}
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the harness handle ("table1", "fig5", ...).
	ID string
	// Title describes the experiment as the paper captions it.
	Title string
	// Shape states the qualitative result the run is expected to show.
	Shape string
	// Run executes the experiment.
	Run func(Config) (*report.Table, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return order(out[i].ID) < order(out[j].ID) })
	return out
}

// order fixes the paper's presentation order.
func order(id string) int {
	for i, v := range []string{
		"table1", "table2", "fig5", "fig6", "table3",
		"fig7", "fig8", "fig9", "fig10", "ablations", "perf", "smt", "backup",
	} {
		if v == id {
			return i
		}
	}
	return 100
}

// ByID returns the named experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}

// IDs lists the registered experiment ids in paper order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// suite runs a predictor factory over every benchmark and returns the
// per-benchmark results in benchmark order. Cells fan out through the
// harness pool (cfg.Pool).
func suite(cfg Config, opts sim.Options, factory sim.Factory) ([]sim.Result, error) {
	return runCells(cfg, sim.SuiteCells(factory, cfg.Benchmarks, opts))
}

// runCells is the cell fan-out every grid-shaped generator goes through.
// Unsharded it is sim.RunCells; as a sharded-precompute worker
// (cfg.Shard.Count > 1) it simulates only the cells this shard owns —
// chosen by the same stable hash of the cells' cache keys internal/shard
// uses for sweeps, so the partition is identical on every worker —
// through the shared store, and returns zero Results for the rest. A cell
// without a canonical cache key cannot be handed to the other workers,
// so sharding refuses it loudly instead of silently computing it
// everywhere or nowhere.
func runCells(cfg Config, cells []sim.Cell) ([]sim.Result, error) {
	if cfg.Shard != (shard.Spec{}) {
		if err := cfg.Shard.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	if cfg.Shard.Count <= 1 {
		return sim.RunCells(context.Background(), cells, cfg.Instructions, cfg.Pool)
	}
	if cfg.Pool.Cache == nil {
		return nil, fmt.Errorf("experiments: sharded precompute requires a shared Pool.Cache — the store is how shards hand results to each other")
	}
	owned := make([]sim.Cell, 0, len(cells)/cfg.Shard.Count+1)
	ownedAt := make([]int, 0, cap(owned))
	for i, c := range cells {
		k, ok, err := sim.CellKey(c, cfg.Instructions)
		if err != nil {
			return nil, fmt.Errorf("experiments: cell %d: %w", i, err)
		}
		if !ok {
			return nil, fmt.Errorf("experiments: cell %d (%s on %s) has no canonical configuration key, so no shard could answer for it through the shared store", i, describeCell(c), c.Profile.Name)
		}
		if cfg.Shard.Owns(k.Hash()) {
			owned = append(owned, c)
			ownedAt = append(ownedAt, i)
		}
	}
	rs, err := sim.RunCells(context.Background(), owned, cfg.Instructions, cfg.Pool)
	if err != nil {
		return nil, err
	}
	full := make([]sim.Result, len(cells))
	for j, i := range ownedAt {
		full[i] = rs[j]
	}
	return full, nil
}

// describeCell names a cell's predictor for error messages, tolerating
// factories that fail (the name is only for diagnostics).
func describeCell(c sim.Cell) string {
	p, err := c.Factory()
	if err != nil || p == nil {
		return "predictor"
	}
	return p.Name()
}

// column couples one table column (or ablation row) with its simulation
// options and predictor factory.
type column struct {
	name    string
	opts    sim.Options
	factory sim.Factory
}

// runColumns fans every (column × benchmark) cell through ONE pool run —
// a flat fan-out load-balances better than per-column suites, and it
// hands the pool's ensemble scheduler the whole figure at once, so
// columns sharing an option set collapse to one stream pass per
// benchmark — and returns the per-column series in benchmark order,
// keyed by column name.
func runColumns(cfg Config, cols []column) (map[string][]sim.Result, error) {
	nb := len(cfg.Benchmarks)
	cells := make([]sim.Cell, 0, len(cols)*nb)
	for _, col := range cols {
		cells = append(cells, sim.SuiteCells(col.factory, cfg.Benchmarks, col.opts)...)
	}
	rs, err := runCells(cfg, cells)
	if err != nil {
		return nil, err
	}
	series := make(map[string][]sim.Result, len(cols))
	for ci, col := range cols {
		series[col.name] = rs[ci*nb : (ci+1)*nb : (ci+1)*nb]
	}
	return series, nil
}

// jobs adapts a list of independent closures to the pool, preserving
// order; generators whose cells are not plain (factory × benchmark) runs
// (SMT interleavings, front-end runs, trace measurement) use it directly.
func jobs[T any](cfg Config, fns []func() (T, error)) ([]T, error) {
	wrapped := make([]func(context.Context) (T, error), len(fns))
	for i, fn := range fns {
		wrapped[i] = func(context.Context) (T, error) { return fn() }
	}
	return sim.Parallel(context.Background(), cfg.Pool.Workers, wrapped)
}

// addSeriesColumns builds the common per-benchmark × per-series misp/KI
// table layout used by the figure experiments.
func addSeriesColumns(t *report.Table, benchNames []string, series map[string][]sim.Result, colOrder []string) {
	for bi, name := range benchNames {
		cells := []interface{}{name}
		for _, col := range colOrder {
			cells = append(cells, series[col][bi].MispKI())
		}
		t.AddRowf(cells...)
	}
	mean := []interface{}{"MEAN"}
	for _, col := range colOrder {
		mean = append(mean, sim.Mean(series[col]))
	}
	t.AddRowf(mean...)
}

// benchNames extracts the profile names.
func benchNames(cfg Config) []string {
	out := make([]string, len(cfg.Benchmarks))
	for i, p := range cfg.Benchmarks {
		out[i] = p.Name
	}
	return out
}
