// Command ev8sweep explores one design parameter of a predictor family
// across the benchmark suite — the tool behind the paper's design-space
// statements (best history lengths, §4.5; history longer than log2(size),
// §5.3; table-size scaling, §4.6).
//
// Usage:
//
//	ev8sweep -scheme gshare -param history -values 8,12,16,20,24,28
//	ev8sweep -scheme gshare -param size -values 12,14,16,18,20 (log2 entries)
//	ev8sweep -scheme 2bcg -param history -values 13,17,21,25,29 (G1 length)
//	ev8sweep -scheme 2bcg -param size -values 13,14,15,16 (log2 entries/bank)
//	ev8sweep -scheme perceptron -param history -values 8,16,24,32
//
// Flags -benchmarks and -instructions scope the run; -mode selects the
// information vector. Every (value × benchmark) cell runs in parallel
// across the CPUs (-j 1 forces the serial path); the table is
// byte-identical for every -j. A K-value sweep visits each benchmark K
// times with identical streams, so the pool schedules one single-pass
// ensemble per benchmark when that amortization can win; the schedule
// is the pool's choice, not a flag, because the table is byte-identical
// under every schedule.
//
// -cpuprofile and -memprofile write profiles for go tool pprof.
//
// -stats collects component-attribution counters per cell (predictors
// that support them; see docs/OBSERVABILITY.md); -json emits every cell
// as a machine-readable record to the given file ("-" for stdout,
// replacing the table).
//
// -cache DIR attaches the content-addressed result cache (docs/CACHING.md):
// a repeated sweep whose cells are all cached re-runs with zero simulation
// work, and narrowing or widening -values re-simulates only the new
// points. -v prints the hit/miss summary and any refused (corrupt)
// entries to stderr. The table is byte-identical with caching on, off,
// cold or warm.
//
// One sweep can be spread across processes and machines
// (docs/SHARDING.md). A worker simulates only its share of the cells,
// handing results to the others through the shared store, and records a
// completion manifest:
//
//	ev8sweep -shard 0/3 -manifest MDIR -cache DIR [sweep flags]
//
// A coordinator — run with the SAME sweep flags — verifies every shard
// completed and emits output byte-identical to an unsharded run:
//
//	ev8sweep -merge MDIR -cache DIR [sweep flags]
//
// A worker killed mid-run is simply re-run: cells it had completed are
// answered from the store, so the restart pays only for the remainder.
// An incomplete merge fails loudly, naming the missing cells and shard.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ev8pred/internal/cache"
	"ev8pred/internal/cliflag"
	"ev8pred/internal/frontend"
	"ev8pred/internal/profiling"
	"ev8pred/internal/report"
	"ev8pred/internal/shard"
	"ev8pred/internal/sim"
	"ev8pred/internal/sweep"
	"ev8pred/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ev8sweep:", err)
		os.Exit(1)
	}
}

// run executes the sweep against the given arguments.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ev8sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // a bad flag is one error line, not the whole usage
	var (
		scheme       = fs.String("scheme", "gshare", "predictor family: gshare|2bcg|perceptron")
		param        = fs.String("param", "history", "swept parameter: history|size")
		values       = fs.String("values", "8,12,16,20,24", "comma-separated parameter values")
		benchmarks   = fs.String("benchmarks", "all", "comma-separated benchmarks or 'all'")
		instructions = fs.Int64("instructions", 5_000_000, "instructions per benchmark")
		modeName     = fs.String("mode", "ghist", "information vector: ghist|lghist|lghist-nopath|old-lghist|ev8")
		workers      = fs.Int("j", 0, "parallel simulation cells (0 = one per CPU, 1 = serial)")
		collect      = fs.Bool("stats", false, "collect component-attribution counters (predictors that support them)")
		cacheDir     = fs.String("cache", "", "content-addressed result cache directory (e.g. "+cache.DefaultDir+"; empty = no caching)")
		verbose      = fs.Bool("v", false, "print harness diagnostics (cache hit/miss summary, refused entries) to stderr")
		jsonPath     = fs.String("json", "", "emit per-cell results as JSON to this file ('-' = stdout, replacing the table)")
		shardSpec    = fs.String("shard", "", "worker mode: simulate only shard k/N of the sweep's cells (requires -cache and -manifest; docs/SHARDING.md)")
		manifestDir  = fs.String("manifest", "", "directory for shard completion manifests (worker mode, with -shard)")
		mergeDir     = fs.String("merge", "", "coordinator mode: merge a completed sharded sweep from this manifest directory (requires -cache and the same sweep flags the workers ran)")
	)
	profiles := profiling.Register(fs)
	if err := fs.Parse(args); err == flag.ErrHelp {
		fs.SetOutput(out)
		fs.Usage()
		return nil
	} else if err != nil {
		return fmt.Errorf("%v (run with -h for usage)", err)
	}
	stopProfiles, err := profiles.Start("ev8sweep", os.Stderr)
	if err != nil {
		return err
	}
	defer stopProfiles()

	var xs []int
	for _, s := range strings.Split(*values, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad value %q: %w", s, err)
		}
		xs = append(xs, v)
	}

	var profsList []workload.Profile
	if *benchmarks == "all" {
		profsList = workload.Benchmarks()
	} else {
		for _, n := range strings.Split(*benchmarks, ",") {
			p, err := workload.ByName(strings.TrimSpace(n))
			if err != nil {
				return err
			}
			profsList = append(profsList, p)
		}
	}

	mode, err := frontend.ModeByName(*modeName)
	if err != nil {
		return err
	}

	// The family roster lives in the sweep package so the ev8serve daemon
	// compiles specs through the exact same constructors — identical cache
	// keys, identical results (docs/SERVING.md).
	factory, err := sweep.FamilyFactory(*scheme, *param)
	if err != nil {
		return err
	}

	if err := cliflag.Workers("j", *workers); err != nil {
		return err
	}

	pool := sim.PoolOptions{Workers: *workers}
	if *verbose {
		pool.Log = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "ev8sweep: "+format+"\n", args...)
		}
	}
	if *cacheDir != "" {
		store, err := cache.Open(*cacheDir)
		if err != nil {
			return err
		}
		pool.Cache = store
		defer func() {
			if *verbose {
				hits, misses, readErrs, puts := store.Counts()
				fmt.Fprintf(os.Stderr, "ev8sweep: cache: %d hits, %d misses, %d read errors, %d stored (%s)\n",
					hits, misses, readErrs, puts, store.Dir())
			}
		}()
	}
	opts := sim.Options{Mode: mode, Collect: *collect}

	var pts []sweep.Point
	switch {
	case *shardSpec != "" && *mergeDir != "":
		return fmt.Errorf("-shard (worker) and -merge (coordinator) are mutually exclusive")
	case *shardSpec != "":
		// Worker mode: simulate this shard's cells through the shared
		// store, write the completion manifest, and print a summary — no
		// table; only the merge sees the whole sweep.
		if pool.Cache == nil {
			return fmt.Errorf("-shard requires -cache: the shared store is how shards hand results to the merge")
		}
		if *manifestDir == "" {
			return fmt.Errorf("-shard requires -manifest (where to record this shard's completion)")
		}
		spec, err := shard.ParseSpec(*shardSpec)
		if err != nil {
			return err
		}
		plan, err := shard.NewPlan(factory, xs, profsList, *instructions, opts)
		if err != nil {
			return err
		}
		owned, err := shard.RunShard(context.Background(), plan, spec, *instructions, pool, *manifestDir)
		if err != nil {
			return err
		}
		hits, _, _, puts := pool.Cache.Counts()
		fmt.Fprintf(out, "shard %s: %d of %d cells complete (%d answered from cache, %d computed and stored); manifest %s\n",
			spec, len(owned), len(plan.Cells), hits, puts, shard.ManifestPath(*manifestDir, spec))
		return nil
	case *mergeDir != "":
		// Coordinator mode: verify every shard completed and reassemble
		// the sweep from the store — output below is byte-identical to an
		// unsharded run.
		if pool.Cache == nil {
			return fmt.Errorf("-merge requires -cache: the store holds the shards' results")
		}
		plan, err := shard.NewPlan(factory, xs, profsList, *instructions, opts)
		if err != nil {
			return err
		}
		rs, err := shard.Merge(plan, *mergeDir, pool.Cache)
		if err != nil {
			return err
		}
		if pts, err = sweep.Points(xs, profsList, rs); err != nil {
			return err
		}
	default:
		var err error
		if pts, err = sweep.RunPool(factory, xs, profsList, *instructions, opts, pool); err != nil {
			return err
		}
	}
	title := fmt.Sprintf("%s sweep: %s (%s info vector, %d instr/bench)",
		*scheme, *param, *modeName, *instructions)
	tbl := sweep.Table(title, *param, pts)

	var runs []report.Run
	if *jsonPath != "" {
		for _, p := range pts {
			runs = append(runs, report.FromResults(p.Results)...)
		}
	}
	if *jsonPath == "-" {
		return report.WriteJSON(out, runs)
	}
	if err := tbl.Fprint(out); err != nil {
		return err
	}
	if *jsonPath == "" {
		return nil
	}
	f, err := os.Create(*jsonPath)
	if err != nil {
		return err
	}
	werr := report.WriteJSON(f, runs)
	if cerr := f.Close(); werr == nil && cerr != nil {
		werr = fmt.Errorf("closing json: %w", cerr)
	}
	return werr
}
