// Package sweep provides the parameter-sweep machinery behind the paper's
// design-space exploration (§4.5–4.7, §5.3): run a predictor family across
// one integer-valued design parameter (history length, table size, ...)
// over the benchmark suite and locate the best point. cmd/ev8sweep is the
// CLI; the §5.3 claim — the optimal history length of a large predictor
// exceeds log2 of its table size — is checked by this package's tests.
package sweep

import (
	"context"
	"fmt"

	"ev8pred/internal/predictor"
	"ev8pred/internal/report"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

// Factory builds one family member for a parameter value.
type Factory func(x int) (predictor.Predictor, error)

// Point is one swept design point.
type Point struct {
	// X is the parameter value.
	X int
	// Mean is the suite-mean misp/KI.
	Mean float64
	// Results holds the per-benchmark results.
	Results []sim.Result
}

// RunPool sweeps the parameter values in xs. Every point runs every
// benchmark cold (a fresh predictor per benchmark, as in the experiment
// harness). All (parameter value × benchmark) cells fan out through one
// bounded pool run (pool.Workers; 1 = serial), and the points come back
// in xs order with per-benchmark results in profile order, identical to a
// serial sweep. Because every swept value visits the same benchmarks
// under the same options, the pool's ensemble scheduler (pool.Ensemble,
// default auto) can collapse the K×B cell fan-out into one single-pass
// ensemble task per benchmark — each stream is generated and front-end
// processed once and shared by all K family members — with byte-identical
// points. pool also attaches a result cache (pool.Cache), progress
// reporting or a diagnostics log; cmd/ev8sweep's -cache flag routes here,
// so a repeated sweep whose cells are all cached re-runs with zero
// simulation work.
func RunPool(factory Factory, xs []int, profs []workload.Profile, instrBudget int64, opts sim.Options, pool sim.PoolOptions) ([]Point, error) {
	return RunPoolCtx(context.Background(), factory, xs, profs, instrBudget, opts, pool)
}

// RunPoolCtx is RunPool under a caller-supplied context: canceling ctx
// interrupts the sweep mid-cell (see sim.ErrCanceled) instead of letting
// it run to completion — the serving layer (internal/serve) uses this to
// stop paying for a job whose tenant disconnected or whose daemon is
// draining.
func RunPoolCtx(ctx context.Context, factory Factory, xs []int, profs []workload.Profile, instrBudget int64, opts sim.Options, pool sim.PoolOptions) ([]Point, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("sweep: no parameter values")
	}
	rs, err := sim.RunCells(ctx, Cells(factory, xs, profs, opts), instrBudget, pool)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return Points(xs, profs, rs)
}

// Cells enumerates the sweep's cell space — the same (factory, xs,
// profiles, options) inputs RunPool takes — without simulating anything:
// one cell per (parameter value × benchmark), parameter-major, in exactly
// the order RunPool's results come back. The shard planner
// (internal/shard) keys these cells to partition one sweep across
// processes and machines (docs/SHARDING.md).
func Cells(factory Factory, xs []int, profs []workload.Profile, opts sim.Options) []sim.Cell {
	cells := make([]sim.Cell, 0, len(xs)*len(profs))
	for _, x := range xs {
		mk := func() (predictor.Predictor, error) {
			p, err := factory(x)
			if err != nil {
				return nil, fmt.Errorf("x=%d: %w", x, err)
			}
			return p, nil
		}
		for _, prof := range profs {
			cells = append(cells, sim.Cell{Factory: mk, Profile: prof, Opts: opts})
		}
	}
	return cells
}

// Points reassembles per-cell results, in Cells order, into per-value
// Points — the aggregation half of RunPool, shared with the shard merge
// path so a merged distributed sweep and a single-process sweep build
// their points from the same code.
func Points(xs []int, profs []workload.Profile, rs []sim.Result) ([]Point, error) {
	if len(rs) != len(xs)*len(profs) {
		return nil, fmt.Errorf("sweep: %d results cannot fill %d values x %d benchmarks", len(rs), len(xs), len(profs))
	}
	out := make([]Point, len(xs))
	for i, x := range xs {
		seg := rs[i*len(profs) : (i+1)*len(profs) : (i+1)*len(profs)]
		out[i] = Point{X: x, Mean: sim.Mean(seg), Results: seg}
	}
	return out, nil
}

// Best returns the point with the lowest mean misp/KI (ties: first).
func Best(points []Point) Point {
	best := points[0]
	for _, p := range points[1:] {
		if p.Mean < best.Mean {
			best = p
		}
	}
	return best
}

// Table renders a sweep as a report table: one row per parameter value,
// one column per benchmark plus the mean.
func Table(title, param string, points []Point) *report.Table {
	if len(points) == 0 {
		return report.New(title, param)
	}
	headers := []string{param}
	for _, r := range points[0].Results {
		headers = append(headers, r.Workload)
	}
	headers = append(headers, "MEAN")
	t := report.New(title, headers...)
	best := Best(points)
	for _, p := range points {
		cells := []interface{}{fmt.Sprintf("%d", p.X)}
		for _, r := range p.Results {
			cells = append(cells, r.MispKI())
		}
		cells = append(cells, p.Mean)
		t.AddRowf(cells...)
	}
	t.AddNote("best %s = %d (mean %.3f misp/KI)", param, best.X, best.Mean)
	return t
}
