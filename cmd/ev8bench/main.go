// Command ev8bench regenerates the tables and figures of the paper's
// evaluation section from the library's implementations.
//
// Usage:
//
//	ev8bench [-experiment all|none|table1|table2|fig5|...|ablations|perf|smt|backup]
//	         [-instructions N] [-benchmarks gcc,go,...] [-o report.txt]
//	         [-j workers] [-cache DIR] [-shard k/N] [-v]
//	         [-stats] [-json stats.json] [-csv stats.csv]
//	         [-expvar localhost:8080]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The default regenerates everything over 10M synthetic instructions per
// benchmark (the paper uses 100M; pass -instructions 100000000 for the
// full-scale run). Simulation cells — one cold predictor over one
// benchmark — run in parallel across the CPUs (-j 1 forces the serial
// debugging path); the report is byte-identical for every -j. Cells that
// evaluate different configurations over the same benchmark share one
// generated stream and one front-end pass when the pool finds that the
// amortization can win; that schedule is the pool's choice, not a flag,
// because the report is byte-identical under every schedule (see
// docs/PERFORMANCE.md). -v prints a cells/throughput progress counter to
// stderr.
//
// -cache DIR attaches the content-addressed result cache (docs/CACHING.md):
// cells whose exact inputs were simulated before are answered from DIR
// instead of re-simulated, and fresh results are stored for next time. A
// corrupt entry is refused, recomputed and replaced (-v reports it). The
// report is byte-identical with caching on, off, cold or warm.
//
// -shard k/N (requires -cache) turns the run into one worker of a
// sharded precompute (docs/SHARDING.md): each experiment's cell grid is
// partitioned by the stable hash of the cells' cache keys, the worker
// simulates only shard k's cells into the shared store, and its tables
// show zeros elsewhere — they are cache fuel, not reading material. Once
// every worker finishes, an unsharded run with the same -cache renders
// every table from hits alone, byte-identical to a never-sharded run.
//
// -stats runs the component-attribution suite: the default EV8 predictor
// over every selected benchmark with collection enabled, emitted as JSON
// (to the report stream, or to -json FILE) and optionally as CSV (-csv
// FILE); docs/OBSERVABILITY.md documents the counters and the schema.
// "-experiment none -stats" emits the attribution JSON alone. -expvar
// serves live progress counters over HTTP for long runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"ev8pred/internal/cache"
	"ev8pred/internal/cliflag"
	"ev8pred/internal/ev8"
	"ev8pred/internal/experiments"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/profiling"
	"ev8pred/internal/report"
	"ev8pred/internal/shard"
	"ev8pred/internal/sim"
	"ev8pred/internal/stats/live"
	"ev8pred/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ev8bench:", err)
		os.Exit(1)
	}
}

// progressCounter prints the run's Progress as a running
// cells/branches/throughput line per completed cell. The pool serializes
// Progress callbacks within one fan-out, but experiments may interleave
// fan-outs, so the counter locks anyway.
type progressCounter struct {
	mu    sync.Mutex
	w     io.Writer
	p     *live.Progress
	scope string
}

// setScope labels subsequent progress lines (the running experiment id).
func (pc *progressCounter) setScope(s string) {
	pc.mu.Lock()
	pc.scope = s
	pc.mu.Unlock()
}

// observe implements sim.ProgressFunc.
func (pc *progressCounter) observe(ev sim.CellDone) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.p.Observe(ev)
	snap := pc.p.Snapshot()
	elapsed := time.Since(snap.StartedAt).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(snap.Branches) / elapsed
	}
	fmt.Fprintf(pc.w, "%s: cell %d/%d done (%d total), %.1fM branches, %.2fM br/s, %.1fs\n",
		pc.scope, ev.Done, ev.Total, snap.CellsDone, float64(snap.Branches)/1e6, rate/1e6, elapsed)
}

// run executes the tool; out receives the report unless -o redirects it,
// and errw receives the -v progress stream.
func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ev8bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // a bad flag is one error line, not the whole usage
	var (
		experiment   = fs.String("experiment", "all", "experiment id, 'all', or 'none' (skip the tables); one of "+strings.Join(experiments.IDs(), ","))
		instructions = fs.Int64("instructions", 10_000_000, "synthetic instructions per benchmark")
		benchmarks   = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all eight)")
		outPath      = fs.String("o", "", "write the report to this file instead of stdout")
		workers      = fs.Int("j", 0, "parallel simulation cells (0 = one per CPU, 1 = serial)")
		verbose      = fs.Bool("v", false, "print a progress/throughput counter to stderr")
		statsSuite   = fs.Bool("stats", false, "run the EV8 component-attribution suite and emit it as JSON")
		jsonPath     = fs.String("json", "", "write the -stats JSON to this file instead of the report stream")
		csvPath      = fs.String("csv", "", "also write the -stats records as CSV to this file")
		cacheDir     = fs.String("cache", "", "content-addressed result cache directory (e.g. "+cache.DefaultDir+"; empty = no caching)")
		shardSpec    = fs.String("shard", "", "sharded precompute: simulate only shard k/N of each experiment's cell grid into the shared -cache store (docs/SHARDING.md)")
		expvarAddr   = fs.String("expvar", "", "serve live expvar progress counters on this address (e.g. localhost:8080)")
	)
	profiles := profiling.Register(fs)
	if err := fs.Parse(args); err == flag.ErrHelp {
		fs.SetOutput(out)
		fs.Usage()
		return nil
	} else if err != nil {
		return fmt.Errorf("%v (run with -h for usage)", err)
	}
	if err := cliflag.Workers("j", *workers); err != nil {
		return err
	}
	if *expvarAddr != "" {
		if err := cliflag.HostPort("expvar", *expvarAddr); err != nil {
			return err
		}
	}

	stopProfiles, err := profiles.Start("ev8bench", errw)
	if err != nil {
		return err
	}
	defer stopProfiles()

	cfg := experiments.Config{Instructions: *instructions, Pool: sim.PoolOptions{Workers: *workers}}
	if *benchmarks == "" {
		cfg.Benchmarks = workload.Benchmarks()
	} else {
		for _, name := range strings.Split(*benchmarks, ",") {
			p, err := workload.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			cfg.Benchmarks = append(cfg.Benchmarks, p)
		}
	}
	progress := live.NewProgress()
	cfg.Pool.Progress = progress.Observe
	var counter *progressCounter
	if *verbose {
		counter = &progressCounter{w: errw, p: progress}
		cfg.Pool.Progress = counter.observe
		cfg.Pool.Log = func(format string, args ...interface{}) {
			fmt.Fprintf(errw, "ev8bench: "+format+"\n", args...)
		}
	}
	if *cacheDir != "" {
		store, err := cache.Open(*cacheDir)
		if err != nil {
			return err
		}
		cfg.Pool.Cache = store
		defer func() {
			if *verbose {
				hits, misses, readErrs, puts := store.Counts()
				fmt.Fprintf(errw, "cache: %d hits, %d misses, %d read errors, %d stored (%s)\n",
					hits, misses, readErrs, puts, store.Dir())
			}
		}()
	}
	if *shardSpec != "" {
		spec, err := shard.ParseSpec(*shardSpec)
		if err != nil {
			return err
		}
		if cfg.Pool.Cache == nil {
			return fmt.Errorf("-shard requires -cache: the shared store is how precompute workers hand results to each other")
		}
		cfg.Shard = spec
		fmt.Fprintf(errw, "ev8bench: precompute worker %s: tables below cover only this shard's cells (zeros elsewhere); render from an unsharded -cache run once every worker finishes\n", spec)
	}
	if *expvarAddr != "" {
		dbg, err := live.ServeDebug(*expvarAddr,
			live.Handler("ev8bench", func() any { return progress.Snapshot() }))
		if err != nil {
			return err
		}
		defer func() {
			if cerr := dbg.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "ev8bench: closing expvar server:", cerr)
			}
		}()
		fmt.Fprintf(errw, "ev8bench: live counters at http://%s/debug/vars\n", dbg.Addr())
	}

	var todo []experiments.Experiment
	switch *experiment {
	case "all":
		todo = experiments.All()
	case "none":
		// Table generation skipped; useful with -stats for pure JSON runs.
	default:
		e, err := experiments.ByID(*experiment)
		if err != nil {
			return err
		}
		todo = []experiments.Experiment{e}
	}

	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "ev8bench: closing report:", cerr)
			}
		}()
		w = f
	}

	// The banner is suppressed when no tables will print so that
	// "-experiment none -stats" leaves pure JSON on the report stream.
	if len(todo) > 0 {
		fmt.Fprintf(w, "ev8bench: %d experiments, %d instructions/benchmark, %d benchmarks\n\n",
			len(todo), cfg.Instructions, len(cfg.Benchmarks))
	}
	total := time.Now()
	for _, e := range todo {
		if counter != nil {
			counter.setScope(e.ID)
		}
		start := time.Now()
		tbl, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "## %s — %s\n", e.ID, e.Title)
		fmt.Fprintf(w, "expected shape: %s\n\n", e.Shape)
		if err := tbl.Fprint(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "  (%.1fs)\n\n", time.Since(start).Seconds())
	}
	if *statsSuite {
		if counter != nil {
			counter.setScope("stats")
		}
		runs, err := runStatsSuite(cfg)
		if err != nil {
			return err
		}
		jw := w
		if *jsonPath != "" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				return err
			}
			defer func() {
				if cerr := f.Close(); cerr != nil {
					fmt.Fprintln(os.Stderr, "ev8bench: closing json:", cerr)
				}
			}()
			jw = f
		}
		if err := report.WriteJSON(jw, runs); err != nil {
			return err
		}
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				return err
			}
			werr := report.WriteCSV(f, runs)
			if cerr := f.Close(); werr == nil && cerr != nil {
				werr = fmt.Errorf("closing csv: %w", cerr)
			}
			if werr != nil {
				return werr
			}
		}
	}
	if counter != nil {
		snap := progress.Snapshot()
		elapsed := time.Since(total).Seconds()
		rate := 0.0
		if elapsed > 0 {
			rate = float64(snap.Branches) / elapsed
		}
		fmt.Fprintf(errw, "total: %d cells, %.1fM branches, %.2fM br/s, %.1fs wall (workers=%d)\n",
			snap.CellsDone, float64(snap.Branches)/1e6, rate/1e6, elapsed, effectiveWorkers(*workers))
	}
	return nil
}

// runStatsSuite runs the default EV8 predictor over every selected
// benchmark with component-attribution collection enabled (Options.Collect)
// and returns the machine-readable records — the -stats payload.
func runStatsSuite(cfg experiments.Config) ([]report.Run, error) {
	factory := func() (predictor.Predictor, error) { return ev8.New(ev8.DefaultConfig()) }
	opts := sim.Options{Mode: frontend.ModeEV8(), Collect: true}
	results, err := sim.RunCells(context.Background(),
		sim.SuiteCells(factory, cfg.Benchmarks, opts), cfg.Instructions, cfg.Pool)
	if err != nil {
		return nil, fmt.Errorf("stats suite: %w", err)
	}
	return report.FromResults(results), nil
}

// effectiveWorkers resolves the -j default for the summary line.
func effectiveWorkers(j int) int {
	if j <= 0 {
		return sim.DefaultWorkers()
	}
	return j
}
