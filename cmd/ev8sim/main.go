// Command ev8sim runs one or more branch predictors over a synthetic
// benchmark or a recorded trace file and reports accuracy.
//
// Usage:
//
//	ev8sim [-predictors ev8,2bcg512,gshare,...] [-benchmarks gcc,go|-trace file]
//	       [-instructions N] [-mode ev8|ghist|lghist|lghist-nopath|old-lghist]
//	       [-threads N] [-quantum N] [-stats] [-json results.json]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -stats enables component-attribution collection (see
// docs/OBSERVABILITY.md) for predictors that support it; -json emits the
// results — including any attribution counters — as machine-readable
// JSON to the given file ("-" for stdout, replacing the table).
//
// -save-checkpoint FILE stops a single-predictor, single-workload run
// after -checkpoint-branches conditional branches and serializes the full
// simulation state (predictor tables, front-end history, pending
// commit-delay updates); -resume FILE continues such a run bit-identically
// to one that never stopped, provided the same predictor and -mode
// (mismatches are refused with a typed error). See docs/CACHING.md.
//
// Examples:
//
//	ev8sim -predictors ev8 -benchmarks gcc
//	ev8sim -predictors ev8,gshare,bimodal -benchmarks all -instructions 5000000
//	ev8sim -predictors 2bcg512 -trace gcc.ev8t.gz -mode ghist
//	ev8sim -predictors ev8 -benchmarks perl -threads 4   # SMT interleaving
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ev8pred/internal/core"
	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/agree"
	"ev8pred/internal/predictor/bimodal"
	"ev8pred/internal/predictor/bimode"
	"ev8pred/internal/predictor/cascade"
	"ev8pred/internal/predictor/dhlf"
	"ev8pred/internal/predictor/egskew"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/predictor/local"
	"ev8pred/internal/predictor/perceptron"
	"ev8pred/internal/predictor/yags"
	"ev8pred/internal/profiling"
	"ev8pred/internal/report"
	"ev8pred/internal/sim"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// predictorFactories maps CLI names to configurations (paper presets).
var predictorFactories = map[string]func() (predictor.Predictor, error){
	"ev8":     func() (predictor.Predictor, error) { return ev8.New(ev8.DefaultConfig()) },
	"2bcg256": func() (predictor.Predictor, error) { return core.New(core.Config256K()) },
	"2bcg512": func() (predictor.Predictor, error) { return core.New(core.Config512K()) },
	"2bcg4m":  func() (predictor.Predictor, error) { return core.New(core.Config4M()) },
	"egskew":  func() (predictor.Predictor, error) { return egskew.New(64*1024, 21, true) },
	"bimodal": func() (predictor.Predictor, error) { return bimodal.New(256 * 1024) },
	"gshare":  func() (predictor.Predictor, error) { return gshare.New(1024*1024, 20) },
	"bimode":  func() (predictor.Predictor, error) { return bimode.New(128*1024, 16*1024, 20) },
	"yags":    func() (predictor.Predictor, error) { return yags.New(16*1024, 16*1024, 23) },
	"agree":   func() (predictor.Predictor, error) { return agree.New(64*1024, 128*1024, 17) },
	"local":   func() (predictor.Predictor, error) { return local.New(4*1024, 16) },
	"dhlf":    func() (predictor.Predictor, error) { return dhlf.New(256*1024, 24, 16384) },
	"perceptron": func() (predictor.Predictor, error) {
		return perceptron.New(1024, 27)
	},
	"cascade": func() (predictor.Predictor, error) {
		primary, err := ev8.New(ev8.DefaultConfig())
		if err != nil {
			return nil, err
		}
		backup, err := perceptron.New(1024, 27)
		if err != nil {
			return nil, err
		}
		return cascade.New(primary, backup, cascade.Config{MinConfidence: 14})
	},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ev8sim:", err)
		os.Exit(1)
	}
}

// run executes the tool against the given arguments, writing the result
// table to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ev8sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // a bad flag is one error line, not the whole usage
	var (
		predictors   = fs.String("predictors", "ev8", "comma-separated predictor list: "+strings.Join(predictorNames(), ","))
		benchmarks   = fs.String("benchmarks", "gcc", "comma-separated benchmarks or 'all'")
		traceFile    = fs.String("trace", "", "run over a recorded trace file instead of synthetic benchmarks")
		instructions = fs.Int64("instructions", 10_000_000, "synthetic instructions per benchmark")
		modeName     = fs.String("mode", "ev8", "information vector: ev8|ghist|lghist|lghist-nopath|old-lghist")
		threads      = fs.Int("threads", 1, "SMT: interleave N copies of each benchmark")
		quantum      = fs.Int64("quantum", 1000, "SMT: instructions per thread switch")
		collect      = fs.Bool("stats", false, "collect component-attribution counters (predictors that support them)")
		saveCk       = fs.String("save-checkpoint", "", "stop after -checkpoint-branches conditional branches and write a resumable checkpoint to this file (single predictor, single workload)")
		ckBranches   = fs.Int64("checkpoint-branches", 0, "conditional-branch cut point for -save-checkpoint")
		resumePath   = fs.String("resume", "", "resume from a checkpoint written by -save-checkpoint and run the source dry (same -mode and predictor required)")
		jsonPath     = fs.String("json", "", "emit results as JSON to this file ('-' = stdout, replacing the table)")
	)
	profiles := profiling.Register(fs)
	if err := fs.Parse(args); err == flag.ErrHelp {
		fs.SetOutput(out)
		fs.Usage()
		return nil
	} else if err != nil {
		return fmt.Errorf("%v (run with -h for usage)", err)
	}
	stopProfiles, err := profiles.Start("ev8sim", os.Stderr)
	if err != nil {
		return err
	}
	defer stopProfiles()

	mode, err := frontend.ModeByName(*modeName)
	if err != nil {
		return err
	}
	opts := sim.Options{Mode: mode, Collect: *collect}

	var names []string
	for _, n := range strings.Split(*predictors, ",") {
		names = append(names, strings.TrimSpace(n))
	}
	// Validate predictor names up front.
	for _, n := range names {
		if _, ok := predictorFactories[n]; !ok {
			return fmt.Errorf("unknown predictor %q (have %s)", n, strings.Join(predictorNames(), ","))
		}
	}

	tbl := report.New("ev8sim results",
		"workload", "predictor", "size Kbits", "misp/KI", "accuracy%", "branches")
	var results []sim.Result

	if *saveCk != "" || *resumePath != "" {
		r, err := runCheckpointed(names, *benchmarks, *traceFile, *instructions,
			*threads, opts, *saveCk, *ckBranches, *resumePath)
		if err != nil {
			return err
		}
		addRow(tbl, r)
		return emit(tbl, []sim.Result{r}, *jsonPath, out)
	}

	if *traceFile != "" {
		// Decode once (gzip-transparent), replay per predictor.
		rd, closer, err := trace.Open(*traceFile)
		if err != nil {
			return err
		}
		records, err := trace.Collect(rd, 0)
		// A decode error mid-stream (truncation, CRC mismatch) must fail
		// the run, not silently simulate the valid prefix.
		if err != nil {
			return fmt.Errorf("%s: %w", *traceFile, err)
		}
		if err := closer.Close(); err != nil {
			return err
		}
		for _, n := range names {
			p, err := predictorFactories[n]()
			if err != nil {
				return err
			}
			r, err := sim.Run(p, trace.NewSlice(records), opts)
			if err != nil {
				return err
			}
			r.Workload = *traceFile
			results = append(results, r)
			addRow(tbl, r)
		}
		return emit(tbl, results, *jsonPath, out)
	}

	var profs []workload.Profile
	if *benchmarks == "all" {
		profs = workload.Benchmarks()
	} else {
		for _, n := range strings.Split(*benchmarks, ",") {
			prof, err := workload.ByName(strings.TrimSpace(n))
			if err != nil {
				return err
			}
			profs = append(profs, prof)
		}
	}
	for _, prof := range profs {
		for _, n := range names {
			p, err := predictorFactories[n]()
			if err != nil {
				return err
			}
			var r sim.Result
			if *threads <= 1 {
				r, err = sim.RunBenchmark(p, prof, *instructions, opts)
				if err != nil {
					return err
				}
			} else {
				srcs := make([]trace.Source, *threads)
				for i := range srcs {
					g, err := workload.New(prof, *instructions)
					if err != nil {
						return err
					}
					srcs[i] = g
				}
				r, err = sim.Run(p, workload.NewInterleaved(srcs, *quantum), opts)
				if err != nil {
					return err
				}
				r.Workload = fmt.Sprintf("%s x%d", prof.Name, *threads)
			}
			if r.Workload == "" {
				r.Workload = prof.Name
			}
			results = append(results, r)
			addRow(tbl, r)
		}
	}
	return emit(tbl, results, *jsonPath, out)
}

// runCheckpointed handles the -save-checkpoint / -resume modes: one
// predictor over one workload, either stopped at a branch cut with its
// full simulation state (predictor tables, front-end history, pending
// commit-delay updates) serialized to disk, or continued from such a file
// — bit-identically, as if the run had never stopped (see the repo-level
// resume-equivalence suite).
func runCheckpointed(names []string, benchmarks, traceFile string, instructions int64,
	threads int, opts sim.Options, saveCk string, ckBranches int64, resumePath string) (sim.Result, error) {
	switch {
	case saveCk != "" && resumePath != "":
		return sim.Result{}, fmt.Errorf("-save-checkpoint and -resume are mutually exclusive")
	case len(names) != 1:
		return sim.Result{}, fmt.Errorf("checkpointing runs exactly one predictor (got %d)", len(names))
	case threads != 1:
		return sim.Result{}, fmt.Errorf("checkpointing does not support SMT interleaving")
	}

	var (
		src   trace.Source
		wname string
	)
	if traceFile != "" {
		rd, closer, err := trace.Open(traceFile)
		if err != nil {
			return sim.Result{}, err
		}
		records, err := trace.Collect(rd, 0)
		if err != nil {
			return sim.Result{}, fmt.Errorf("%s: %w", traceFile, err)
		}
		if err := closer.Close(); err != nil {
			return sim.Result{}, err
		}
		src, wname = trace.NewSlice(records), traceFile
	} else {
		if strings.Contains(benchmarks, ",") || benchmarks == "all" {
			return sim.Result{}, fmt.Errorf("checkpointing runs exactly one benchmark (got %q)", benchmarks)
		}
		prof, err := workload.ByName(benchmarks)
		if err != nil {
			return sim.Result{}, err
		}
		g, err := workload.New(prof, instructions)
		if err != nil {
			return sim.Result{}, err
		}
		src, wname = g, prof.Name
	}

	p, err := predictorFactories[names[0]]()
	if err != nil {
		return sim.Result{}, err
	}

	if resumePath != "" {
		data, err := os.ReadFile(resumePath)
		if err != nil {
			return sim.Result{}, err
		}
		var ck sim.Checkpoint
		if err := ck.UnmarshalBinary(data); err != nil {
			return sim.Result{}, fmt.Errorf("%s: %w", resumePath, err)
		}
		if err := sim.SkipRecords(src, ck.Records); err != nil {
			return sim.Result{}, err
		}
		r, err := sim.ResumeFrom(p, src, opts, &ck)
		if err != nil {
			return sim.Result{}, err
		}
		r.Workload = wname
		return r, nil
	}

	if ckBranches <= 0 {
		return sim.Result{}, fmt.Errorf("-save-checkpoint needs -checkpoint-branches > 0")
	}
	cutOpts := opts
	cutOpts.MaxBranches = ckBranches
	r, ck, err := sim.RunCheckpoint(p, src, cutOpts)
	if err != nil {
		return sim.Result{}, err
	}
	blob, err := ck.MarshalBinary()
	if err != nil {
		return sim.Result{}, err
	}
	if err := os.WriteFile(saveCk, blob, 0o644); err != nil {
		return sim.Result{}, err
	}
	fmt.Fprintf(os.Stderr, "ev8sim: checkpoint at %d branches (%d source records) -> %s (%d bytes)\n",
		ck.RawBranches, ck.Records, saveCk, len(blob))
	r.Workload = wname
	return r, nil
}

// emit prints the table and, when -json was given, the machine-readable
// records: "-" replaces the table on stdout, any other path gets the JSON
// alongside the printed table.
func emit(tbl *report.Table, results []sim.Result, jsonPath string, out io.Writer) error {
	runs := report.FromResults(results)
	if jsonPath == "-" {
		return report.WriteJSON(out, runs)
	}
	if err := tbl.Fprint(out); err != nil {
		return err
	}
	if jsonPath == "" {
		return nil
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	werr := report.WriteJSON(f, runs)
	if cerr := f.Close(); werr == nil && cerr != nil {
		werr = fmt.Errorf("closing json: %w", cerr)
	}
	return werr
}

func addRow(tbl *report.Table, r sim.Result) {
	tbl.AddRowf(r.Workload, r.Predictor, r.SizeBits/1024,
		r.MispKI(), 100*r.Accuracy(), r.Branches)
}

func predictorNames() []string {
	out := make([]string, 0, len(predictorFactories))
	for n := range predictorFactories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
