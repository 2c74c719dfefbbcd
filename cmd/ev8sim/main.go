// Command ev8sim runs one or more branch predictors over a synthetic
// benchmark or a recorded trace file and reports accuracy.
//
// Each workload is one streaming pass that feeds every branch to all the
// -predictors, so memory does not grow with the trace. -threads,
// -quantum, -instructions and -benchmarks are refused beside -trace.
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

	"ev8pred/internal/cliflag"
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
	cmd := cliflag.New("ev8sim", out, os.Stderr)
	var (
		predictors   = cmd.String("predictors", "ev8", "comma-separated predictor list: "+strings.Join(predictorNames(), ","))
		benchmarks   = cmd.String("benchmarks", "gcc", "comma-separated benchmarks or 'all'")
		traceFile    = cmd.String("trace", "", "run over a recorded trace file instead of synthetic benchmarks")
		instructions = cmd.PositiveInt64("instructions", 10_000_000, "synthetic instructions per benchmark")
		modeName     = cmd.String("mode", "ev8", "information vector: ev8|ghist|lghist|lghist-nopath|old-lghist")
		threads      = cmd.PositiveInt("threads", 1, "SMT: interleave N copies of each benchmark")
		quantum      = cmd.PositiveInt64("quantum", 1000, "SMT: instructions per thread switch")
		collect      = cmd.Bool("stats", false, "collect component-attribution counters (predictors that support them)")
		saveCk       = cmd.String("save-checkpoint", "", "stop after -checkpoint-branches conditional branches and write a resumable checkpoint to this file (single predictor, single workload)")
		ckBranches   = cmd.Int64("checkpoint-branches", 0, "conditional-branch cut point for -save-checkpoint")
		resumePath   = cmd.String("resume", "", "resume from a checkpoint written by -save-checkpoint and run the source dry (same -mode and predictor required)")
	)
	cmd.JSON()
	cmd.Profiles()
	if ok, err := cmd.Parse(args); !ok {
		return err
	}
	defer cmd.Close()
	// A trace file fixes its own stream: refuse the synthetic-workload
	// flags beside it rather than ignore them.
	var unused error
	cmd.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "threads", "quantum", "instructions", "benchmarks":
			if *traceFile != "" {
				unused = &cliflag.Error{Flag: f.Name, Value: f.Value.String(),
					Reason: "describes a synthetic workload; -trace takes its stream from the file"}
			}
		}
	})
	if unused != nil {
		return unused
	}

	mode, err := frontend.ModeByName(*modeName)
	if err != nil {
		return err
	}
	opts := sim.Options{Mode: mode, Collect: *collect}

	var factories []sim.Factory
	for _, n := range strings.Split(*predictors, ",") {
		n = strings.TrimSpace(n)
		mk, ok := predictorFactories[n]
		if !ok {
			return fmt.Errorf("unknown predictor %q (have %s)", n, strings.Join(predictorNames(), ","))
		}
		factories = append(factories, mk)
	}

	tbl := report.New("ev8sim results",
		"workload", "predictor", "size Kbits", "misp/KI", "accuracy%", "branches")
	var results []sim.Result
	// add labels one workload's results and appends them as rows.
	add := func(workload string, rs []sim.Result) {
		for _, r := range rs {
			r.Workload = workload
			results = append(results, r)
			tbl.AddRowf(r.Workload, r.Predictor, r.SizeBits/1024,
				r.MispKI(), 100*r.Accuracy(), r.Branches)
		}
	}

	switch {
	case *saveCk != "" || *resumePath != "":
		r, err := runCheckpointed(factories, *benchmarks, *traceFile, *instructions,
			*threads, opts, *saveCk, *ckBranches, *resumePath)
		if err != nil {
			return err
		}
		add(r.Workload, []sim.Result{r})
	case *traceFile != "":
		rd, closer, err := trace.Open(*traceFile)
		if err != nil {
			return err
		}
		defer closer.Close()
		rs, err := sim.RunEnsemble(factories, namedSource{rd, *traceFile}, opts)
		if err != nil {
			return err
		}
		add(*traceFile, rs)
	default:
		profs, err := cliflag.Benchmarks(*benchmarks)
		if err != nil {
			return err
		}
		for _, prof := range profs {
			if *threads == 1 {
				rs, err := sim.RunEnsembleBenchmark(factories, prof, *instructions, opts)
				if err != nil {
					return err
				}
				add(prof.Name, rs)
				continue
			}
			srcs := make([]trace.Source, *threads)
			for i := range srcs {
				if srcs[i], err = workload.New(prof, *instructions); err != nil {
					return err
				}
			}
			rs, err := sim.RunEnsemble(factories, workload.NewInterleaved(srcs, *quantum), opts)
			if err != nil {
				return err
			}
			add(fmt.Sprintf("%s x%d", prof.Name, *threads), rs)
		}
	}
	return cmd.Emit(tbl, report.FromResults(results))
}

// namedSource reads a trace file (trace.Open, gzip-transparent) and
// names the file in its decode errors. A decode error mid-stream
// (truncation, CRC mismatch) fails the run rather than letting the valid
// prefix pass for the whole trace.
type namedSource struct {
	trace.Source
	path string
}

func (s namedSource) NextBatch(buf []trace.Branch) (int, error) {
	n, err := s.Source.NextBatch(buf)
	if err != nil && err != io.EOF {
		err = fmt.Errorf("%s: %w", s.path, err)
	}
	return n, err
}

// runCheckpointed handles the -save-checkpoint / -resume modes: one
// predictor over one workload, either stopped at a branch cut with its
// full simulation state (predictor tables, front-end history, pending
// commit-delay updates) serialized to disk, or continued from such a file
// — bit-identically, as if the run had never stopped (see the repo-level
// resume-equivalence suite).
func runCheckpointed(factories []sim.Factory, benchmarks, traceFile string, instructions int64,
	threads int, opts sim.Options, saveCk string, ckBranches int64, resumePath string) (sim.Result, error) {
	switch {
	case saveCk != "" && resumePath != "":
		return sim.Result{}, fmt.Errorf("-save-checkpoint and -resume are mutually exclusive")
	case len(factories) != 1:
		return sim.Result{}, fmt.Errorf("checkpointing runs exactly one predictor (got %d)", len(factories))
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
		defer closer.Close()
		src, wname = namedSource{rd, traceFile}, traceFile
	} else {
		profs, err := cliflag.Benchmarks(benchmarks)
		if err != nil {
			return sim.Result{}, err
		}
		if len(profs) != 1 {
			return sim.Result{}, fmt.Errorf("checkpointing runs exactly one benchmark (got %q)", benchmarks)
		}
		prof := profs[0]
		g, err := workload.New(prof, instructions)
		if err != nil {
			return sim.Result{}, err
		}
		src, wname = g, prof.Name
	}

	p, err := factories[0]()
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

func predictorNames() []string {
	out := make([]string, 0, len(predictorFactories))
	for n := range predictorFactories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
