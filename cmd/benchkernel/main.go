// Command benchkernel measures the batch kernel against the scalar fused
// path and writes the machine-readable snapshot BENCH_kernel.json.
//
// Usage:
//
//	benchkernel [-o BENCH_kernel.json] [-baseline BENCH_baseline.json]
//	            [-branches N] [-events N]
//
// For every Batch-marked entry of the internal/hotbench roster (the
// predictors implementing predictor.BatchPredictor) two numbers are
// recorded over the same prerecorded gcc events:
//
//   - scalar: the per-branch Lookup/UpdateWith replay, the path
//     BENCH_baseline.json's predictors section measures;
//
//   - batch: the staged LookupBatch/UpdateBatch replay over SoA chunks
//     (docs/PERFORMANCE.md, "Batch kernel"), the path sim.Run takes for
//     eligible runs.
//
// Each entry reports both ns/branch figures, the batch-vs-scalar speedup
// measured in-process, and — when -baseline names a readable snapshot
// with a matching entry — the speedup against that committed reference,
// the acceptance number for the sub-50 ns/branch roadmap item.
//
// A second section, end_to_end, measures the FULL simulation loop
// (workload generator + front-end tracker + predictor) rather than the
// prerecorded replay, once with the scalar schedule forced (-batch off)
// and once with the chunked kernel forced (-batch on):
//
//   - table1_ev8: sim.Run of the as-shipped Table 1 EV8 configuration,
//     the repository's headline number; its speedup_vs_baseline compares
//     the batch path against end_to_end.table1_ev8 in
//     BENCH_baseline.json, the acceptance number for the sub-200
//     ns/branch roadmap item;
//
//   - ev8_cascade: sim.RunEnsemble over the EV8-mode roster (the EV8,
//     the unconstrained ConfigEV8Size 2Bc-gskew, and the §9 cascade) —
//     the cascade alone is not a batch predictor, so its batch leg runs
//     under BatchAuto: the siblings resolve chunked around it. ns/branch is per STREAM branch (each branch visits all three
//     members).
//
// `make bench-kernel` regenerates the committed snapshot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"ev8pred/internal/core"
	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/hotbench"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/cascade"
	"ev8pred/internal/predictor/perceptron"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

// metric is one measured path of one configuration.
type metric struct {
	NsPerBranch     float64 `json:"ns_per_branch"`
	BranchesPerSec  float64 `json:"branches_per_sec"`
	AllocsPerBranch float64 `json:"allocs_per_branch"`
}

// entry pairs the two paths for one roster configuration.
type entry struct {
	Scalar metric `json:"scalar"`
	Batch  metric `json:"batch"`
	// SpeedupBatchVsScalar compares the two paths measured by this run.
	SpeedupBatchVsScalar float64 `json:"speedup_batch_vs_scalar"`
	// SpeedupVsBaseline compares the batch path against the committed
	// BENCH_baseline.json scalar reference for the same predictor;
	// omitted when the baseline has no matching entry.
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
	// BaselineNsPerBranch echoes the reference number the speedup is
	// against, so the snapshot is self-contained.
	BaselineNsPerBranch float64 `json:"baseline_ns_per_branch,omitempty"`
}

// snapshot is the BENCH_kernel.json document.
type snapshot struct {
	Schema          int              `json:"schema"`
	GoVersion       string           `json:"go_version"`
	GOOS            string           `json:"goos"`
	GOARCH          string           `json:"goarch"`
	BranchesPerCase int64            `json:"branches_per_case"`
	BaselineFile    string           `json:"baseline_file,omitempty"`
	Predictors      map[string]entry `json:"predictors"`
	EndToEnd        map[string]entry `json:"end_to_end"`
}

// baselineRef is one reference number read from BENCH_baseline.json.
type baselineRef struct {
	NsPerBranch float64 `json:"ns_per_branch"`
}

// baselineDoc is the slice of BENCH_baseline.json this tool reads.
type baselineDoc struct {
	Predictors map[string]baselineRef `json:"predictors"`
	EndToEnd   map[string]baselineRef `json:"end_to_end"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchkernel:", err)
		os.Exit(1)
	}
}

// run executes the tool; the report goes to out unless -o names a file.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchkernel", flag.ContinueOnError)
	var (
		outPath  = fs.String("o", "", "write the JSON snapshot to this file instead of stdout")
		baseline = fs.String("baseline", "BENCH_baseline.json", "committed baseline snapshot to compute speedups against (empty to skip)")
		branches = fs.Int64("branches", 1_000_000, "branches per measured configuration and path")
		events   = fs.Int("events", 4096, "prerecorded events in the replay window")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *branches <= 0 || *events <= 0 {
		return fmt.Errorf("-branches and -events must be positive")
	}

	var ref baselineDoc
	refName := ""
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		switch {
		case err == nil:
			if err := json.Unmarshal(data, &ref); err != nil {
				return fmt.Errorf("parsing %s: %w", *baseline, err)
			}
			refName = *baseline
		case os.IsNotExist(err):
			fmt.Fprintf(os.Stderr, "benchkernel: %s not found, skipping baseline speedups\n", *baseline)
		default:
			return err
		}
	}

	doc := snapshot{
		Schema:          1,
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		BranchesPerCase: *branches,
		BaselineFile:    refName,
		Predictors:      map[string]entry{},
		EndToEnd:        map[string]entry{},
	}

	for _, c := range hotbench.Cases() {
		if !c.Batch {
			continue
		}
		evs, err := hotbench.Collect(c.Mode, "gcc", *events)
		if err != nil {
			return err
		}

		ps, err := c.New()
		if err != nil {
			return err
		}
		scalar := measure(*branches, func(n int64) {
			for done := int64(0); done < n; done += int64(len(evs)) {
				hotbench.Replay(ps, evs)
			}
		})

		pb, err := c.New()
		if err != nil {
			return err
		}
		bp, ok := pb.(predictor.BatchPredictor)
		if !ok {
			return fmt.Errorf("%s is Batch-marked but does not implement predictor.BatchPredictor", c.Name)
		}
		staged := hotbench.NewBatchRun(evs, 0)
		batch := measure(*branches, func(n int64) {
			for done := int64(0); done < n; done += int64(staged.Len()) {
				staged.Replay(bp)
			}
		})

		e := entry{
			Scalar:               scalar,
			Batch:                batch,
			SpeedupBatchVsScalar: scalar.NsPerBranch / batch.NsPerBranch,
		}
		if r, ok := ref.Predictors[c.Name]; ok && r.NsPerBranch > 0 {
			e.BaselineNsPerBranch = r.NsPerBranch
			e.SpeedupVsBaseline = r.NsPerBranch / batch.NsPerBranch
		}
		doc.Predictors[c.Name] = e
	}

	// End-to-end section: the full simulation loop with the batch schedule
	// forced off, then on. sim guarantees byte-identical Results in both
	// modes (the differential suites are the gate); this section records
	// what the schedule is worth in wall-clock.
	for _, c := range []struct {
		name string
		run  func(n int64, mode sim.BatchMode) error
	}{
		{"table1_ev8", runTable1},
		{"ev8_cascade", runCascadeEnsemble},
	} {
		scalar, err := measureOnce(*branches, func(n int64) error { return c.run(n, sim.BatchOff) })
		if err != nil {
			return fmt.Errorf("%s scalar: %w", c.name, err)
		}
		batch, err := measureOnce(*branches, func(n int64) error { return c.run(n, sim.BatchOn) })
		if err != nil {
			return fmt.Errorf("%s batch: %w", c.name, err)
		}
		e := entry{
			Scalar:               scalar,
			Batch:                batch,
			SpeedupBatchVsScalar: scalar.NsPerBranch / batch.NsPerBranch,
		}
		if r, ok := ref.EndToEnd[c.name]; ok && r.NsPerBranch > 0 {
			e.BaselineNsPerBranch = r.NsPerBranch
			e.SpeedupVsBaseline = r.NsPerBranch / batch.NsPerBranch
		}
		doc.EndToEnd[c.name] = e
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *outPath != "" {
		return os.WriteFile(*outPath, data, 0o644)
	}
	_, err = out.Write(data)
	return err
}

// runTable1 executes one cold sim.Run of the Table 1 EV8 configuration
// over the gcc workload with the given batch schedule.
func runTable1(n int64, mode sim.BatchMode) error {
	prof, err := workload.ByName("gcc")
	if err != nil {
		return err
	}
	src, err := workload.New(prof, 0)
	if err != nil {
		return err
	}
	p, err := ev8.New(ev8.DefaultConfig())
	if err != nil {
		return err
	}
	r, err := sim.Run(p, src, sim.Options{Mode: frontend.ModeEV8(), MaxBranches: n, Batch: mode})
	if err != nil {
		return err
	}
	if r.Branches == 0 {
		return fmt.Errorf("degenerate end-to-end run: %+v", r)
	}
	return nil
}

// runCascadeEnsemble executes one cold sim.RunEnsemble of the EV8-mode
// roster — EV8, ConfigEV8Size 2Bc-gskew, and the §9 cascade — over one
// shared gcc stream with the given batch schedule. The cascade is not a
// batch predictor; the engine runs it per branch inside the walk while its
// siblings resolve chunked, which is exactly what makes this case worth
// timing. BatchOn would reject the cascade, so the batch leg runs under
// BatchAuto, which makes every other member a batch member.
func runCascadeEnsemble(n int64, mode sim.BatchMode) error {
	if mode == sim.BatchOn {
		mode = sim.BatchAuto
	}
	prof, err := workload.ByName("gcc")
	if err != nil {
		return err
	}
	src, err := workload.New(prof, 0)
	if err != nil {
		return err
	}
	factories := []sim.Factory{
		func() (predictor.Predictor, error) { return ev8.New(ev8.DefaultConfig()) },
		func() (predictor.Predictor, error) { return core.New(core.ConfigEV8Size()) },
		func() (predictor.Predictor, error) {
			primary, err := ev8.New(ev8.DefaultConfig())
			if err != nil {
				return nil, err
			}
			backup, err := perceptron.New(256, 12)
			if err != nil {
				return nil, err
			}
			return cascade.New(primary, backup, cascade.Config{OverrideEntries: 4096})
		},
	}
	rs, err := sim.RunEnsemble(factories, src, sim.Options{Mode: frontend.ModeEV8(), MaxBranches: n, Batch: mode})
	if err != nil {
		return err
	}
	for i, r := range rs {
		if r.Branches == 0 {
			return fmt.Errorf("degenerate ensemble member %d: %+v", i, r)
		}
	}
	return nil
}

// measureOnce times a single execution of run(branches) after a short
// warm run — the end-to-end shape, where each call is a fresh cold
// simulation rather than a replay loop over prerecorded events.
func measureOnce(branches int64, run func(n int64) error) (metric, error) {
	warm := branches
	if warm > 1<<14 {
		warm = 1 << 14
	}
	if err := run(warm); err != nil {
		return metric{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := run(branches); err != nil {
		return metric{}, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	ns := float64(elapsed.Nanoseconds()) / float64(branches)
	return metric{
		NsPerBranch:     ns,
		BranchesPerSec:  1e9 / ns,
		AllocsPerBranch: float64(after.Mallocs-before.Mallocs) / float64(branches),
	}, nil
}

// measure times fn(branches) and converts to per-branch metrics; the
// allocation count comes from the runtime's exact mallocs counter.
func measure(branches int64, fn func(n int64)) metric {
	warm := branches
	if warm > 1<<14 {
		warm = 1 << 14
	}
	fn(warm) // warm caches and any lazy initialization
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn(branches)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	ns := float64(elapsed.Nanoseconds()) / float64(branches)
	return metric{
		NsPerBranch:     ns,
		BranchesPerSec:  1e9 / ns,
		AllocsPerBranch: float64(after.Mallocs-before.Mallocs) / float64(branches),
	}
}
