// Package ev8pred is a library reproduction of the Alpha EV8 conditional
// branch predictor from "Design Tradeoffs for the Alpha EV8 Conditional
// Branch Predictor" (Seznec, Felix, Krishnan, Sazeides — ISCA 2002),
// together with the baseline predictors, the fetch-front-end model, the
// synthetic SPECINT95-like workload substrate, and the experiment harness
// that regenerates every table and figure of the paper's evaluation.
//
// This root package is the stable public facade: it re-exports the types
// a downstream user needs to build predictors, run simulations and define
// custom schemes, without reaching into internal packages. The runnable
// entry points live in cmd/ (ev8sim, ev8bench, tracegen, traceinfo) and
// examples/.
//
// # Quick start
//
//	p := ev8pred.NewEV8()                       // the 352 Kbit EV8 predictor
//	prof, _ := ev8pred.BenchmarkByName("gcc")   // a synthetic SPECINT95-like workload
//	r, err := ev8pred.RunBenchmark(p, prof, 10_000_000, ev8pred.Options{
//		Mode: ev8pred.ModeEV8(),            // 3-blocks-old lghist + path info
//	})
//	if err != nil {                             // e.g. a corrupted trace source
//		log.Fatal(err)
//	}
//	fmt.Println(r) // misp/KI, accuracy, branch count
//
// # Custom predictors
//
// Implement the Predictor interface (Predict/Update over Info) and pass it
// to Run or RunBenchmark; see examples/custom.
package ev8pred

import (
	"ev8pred/internal/core"
	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/sim"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// Core simulation types.
type (
	// Predictor is a conditional branch predictor (see internal/predictor).
	Predictor = predictor.Predictor
	// Info is the per-branch information vector handed to predictors.
	Info = history.Info
	// Branch is one dynamic control-transfer trace record.
	Branch = trace.Branch
	// Source is a stream of trace records.
	Source = trace.Source
	// Mode selects the information vector the front end materializes.
	Mode = frontend.Mode
	// Options configures a simulation run.
	Options = sim.Options
	// Result summarizes a simulation run (misp/KI, accuracy).
	Result = sim.Result
	// Factory builds one cold predictor instance (ensemble members,
	// simulation cells).
	Factory = sim.Factory
	// EnsembleMode selects per-cell vs single-pass ensemble scheduling.
	EnsembleMode = sim.EnsembleMode
	// BatchSource is a Source that can also deliver records in batches;
	// the simulator uses NextBatch when available to amortize per-record
	// interface-call overhead.
	BatchSource = trace.BatchSource
	// BatchPredictor is a FusedPredictor that can run whole record chunks
	// through each pipeline stage (docs/PERFORMANCE.md, "Batch kernel");
	// 2Bc-gskew, e-gskew and gshare implement it.
	BatchPredictor = predictor.BatchPredictor
	// FusedPredictor is a Predictor with the single-lookup fast path
	// (Lookup/UpdateWith) the simulator prefers when available.
	FusedPredictor = predictor.FusedPredictor
	// BatchMode selects whether eligible runs use the batch kernel.
	BatchMode = sim.BatchMode
	// Profile parameterizes a synthetic benchmark workload.
	Profile = workload.Profile
	// CoreConfig parameterizes a 2Bc-gskew predictor.
	CoreConfig = core.Config
	// EV8Config parameterizes the hardware-constrained EV8 predictor.
	EV8Config = ev8.Config
)

// Information-vector modes (Figure 7 of the paper).
var (
	// ModeGhist is conventional per-branch global history.
	ModeGhist = frontend.ModeGhist
	// ModeLghist is block-compressed history with the path bit.
	ModeLghist = frontend.ModeLghist
	// ModeLghistNoPath is block-compressed history without path info.
	ModeLghistNoPath = frontend.ModeLghistNoPath
	// ModeOldLghist is three-fetch-blocks-old lghist.
	ModeOldLghist = frontend.ModeOldLghist
	// ModeEV8 is the Alpha EV8 information vector.
	ModeEV8 = frontend.ModeEV8
)

// NewEV8 returns the as-shipped 352 Kbit Alpha EV8 predictor. Run it under
// ModeEV8 for the hardware-faithful information vector.
func NewEV8() *ev8.Predictor {
	return ev8.MustNew(ev8.DefaultConfig())
}

// NewEV8WithConfig returns an EV8 predictor with index-function variants.
func NewEV8WithConfig(cfg EV8Config) (*ev8.Predictor, error) {
	return ev8.New(cfg)
}

// New2BcGskew builds an unconstrained 2Bc-gskew predictor from a core
// configuration; see Config256K/Config512K/ConfigEV8Size for the paper's
// presets.
func New2BcGskew(cfg CoreConfig) (*core.Predictor, error) {
	return core.New(cfg)
}

// The paper's named 2Bc-gskew configurations.
var (
	// Config256K is the 4x32K-entry (256 Kbit) predictor of Figure 5.
	Config256K = core.Config256K
	// Config512K is the 4x64K-entry (512 Kbit) predictor of Figures 5-8.
	Config512K = core.Config512K
	// ConfigEV8Size is the Table 1 (352 Kbit) memory configuration.
	ConfigEV8Size = core.ConfigEV8Size
)

// Benchmarks returns the eight SPECINT95-like synthetic workload profiles.
func Benchmarks() []Profile { return workload.Benchmarks() }

// BenchmarkByName returns the named workload profile.
func BenchmarkByName(name string) (Profile, error) { return workload.ByName(name) }

// NewWorkload builds a trace source for a profile with an instruction
// budget (<= 0 means unbounded).
func NewWorkload(prof Profile, instructions int64) (Source, error) {
	return workload.New(prof, instructions)
}

// ErrSource is a Source that can fail mid-stream; after Next returns
// false, Err distinguishes a clean end of stream from a decode error.
// File-backed trace readers implement it, and Run checks it, so corrupted
// input cannot masquerade as a short-but-valid run.
type ErrSource = trace.ErrSource

// ErrBadTraceFormat is the sentinel every trace decode failure wraps:
// bad magic, truncation, CRC mismatch, footer count mismatch, or an
// out-of-range field. Match with errors.Is.
var ErrBadTraceFormat = trace.ErrBadFormat

// SourceErr returns the deferred stream error of src if it exposes one
// (implements ErrSource), and nil otherwise.
func SourceErr(src Source) error { return trace.SourceErr(src) }

// Run simulates a predictor over an arbitrary branch source. A non-nil
// error means the source failed mid-stream (e.g. a corrupted trace file);
// the returned Result covers the branches processed before the failure
// and must not be treated as a complete run.
func Run(p Predictor, src Source, opts Options) (Result, error) { return sim.Run(p, src, opts) }

// RunBenchmark simulates a predictor over a synthetic benchmark.
func RunBenchmark(p Predictor, prof Profile, instructions int64, opts Options) (Result, error) {
	return sim.RunBenchmark(p, prof, instructions, opts)
}

// Ensemble scheduling modes of the cell pool (the Ensemble field of
// internal/sim's PoolOptions; see RunEnsemble).
const (
	// EnsembleAuto groups cells into per-workload ensembles only when the
	// amortization can win (the default).
	EnsembleAuto = sim.EnsembleAuto
	// EnsembleOff always simulates cells independently: the reference
	// schedule for differential testing.
	EnsembleOff = sim.EnsembleOff
)

// Batch scheduling modes (see Options.Batch). Results are byte-identical
// in both modes; BatchOff exists only as the reference for differential
// testing.
const (
	// BatchAuto routes every eligible member through the batch kernel
	// (default).
	BatchAuto = sim.BatchAuto
	// BatchOff runs every member per branch, on the fused path when the
	// predictor has one.
	BatchOff = sim.BatchOff
)

// RunEnsemble simulates every factory-built predictor over ONE shared
// pass of src: the stream is advanced once and its front-end state
// computed once, shared by all members. Results (one per factory, in
// factory order) are byte-identical to running each member through Run
// over its own copy of the stream.
func RunEnsemble(factories []Factory, src Source, opts Options) ([]Result, error) {
	return sim.RunEnsemble(factories, src, opts)
}

// RunEnsembleBenchmark runs an ensemble over a synthetic benchmark.
func RunEnsembleBenchmark(factories []Factory, prof Profile, instructions int64, opts Options) ([]Result, error) {
	return sim.RunEnsembleBenchmark(factories, prof, instructions, opts)
}

// Checkpoint / resume (docs/CACHING.md). Predictors that implement
// Snapshotter (the EV8 model, 2Bc-gskew, e-gskew and gshare do) can stop
// a run at a branch count, serialize the full simulation state, and
// continue later bit-identically.
type (
	// Snapshotter is implemented by predictors whose internal state can
	// be serialized and restored exactly.
	Snapshotter = predictor.Snapshotter
	// ConfigKeyer is implemented by predictors that can describe their
	// configuration as a canonical string for result caching.
	ConfigKeyer = predictor.ConfigKeyer
	// Checkpoint is the serializable mid-run state of a simulation.
	Checkpoint = sim.Checkpoint
)

// RunCheckpoint simulates like Run but additionally captures a resumable
// Checkpoint of the final state; bound the stopping point with
// Options.MaxBranches. The predictor must implement Snapshotter.
func RunCheckpoint(p Predictor, src Source, opts Options) (Result, *Checkpoint, error) {
	return sim.RunCheckpoint(p, src, opts)
}

// ResumeFrom restores ck into p and continues the run over src, which
// must already be positioned past the checkpointed records (SkipRecords).
// The combined run is bit-identical to one uninterrupted Run.
func ResumeFrom(p Predictor, src Source, opts Options, ck *Checkpoint) (Result, error) {
	return sim.ResumeFrom(p, src, opts, ck)
}

// SkipRecords advances src past n records, surfacing a typed error if
// the stream ends or fails first.
func SkipRecords(src Source, n int64) error { return sim.SkipRecords(src, n) }
