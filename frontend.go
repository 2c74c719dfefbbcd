package ev8pred

import (
	"ev8pred/internal/perf"
	"ev8pred/internal/sim"
)

// Front-end and performance-model facade: run the whole §2 PC-address
// generator (conditional predictor + jump predictor + return-address
// stack + line predictor) and turn the event counts into the paper's
// fetch-level performance estimate (§1: 14-cycle minimum misprediction
// penalty on an 8-wide machine).

type (
	// FrontEndResult extends Result with PC-generation statistics.
	FrontEndResult = sim.FrontEndResult
	// PerfModel holds the microarchitectural cost parameters.
	PerfModel = perf.Model
	// PerfReport is a performance estimate (cycles, IPC).
	PerfReport = perf.Report
)

// Performance-model presets.
var (
	// PerfEV8 uses the paper's minimum 14-cycle redirect penalty.
	PerfEV8 = perf.EV8
	// PerfEV8Typical uses the "more often around cycle 20" latency.
	PerfEV8Typical = perf.EV8Typical
)

// ErrFrontEndOption reports an Options field (Warmup) or a source (one
// with a second thread) RunFrontEnd does not support; the wrapping error
// names it.
var ErrFrontEndOption = sim.ErrFrontEndOption

// RunFrontEnd simulates the full PC-address generator over src. A nil
// predictor selects a perfect (oracle) conditional predictor, for
// upper-bound studies. A non-nil error means an unsupported option or a
// multi-thread source (ErrFrontEndOption), a source that failed
// mid-stream (e.g. a corrupted trace file), or a result that failed its
// sanity check.
func RunFrontEnd(p Predictor, src Source, opts Options) (FrontEndResult, error) {
	return sim.RunFrontEnd(p, src, opts)
}

// RunFrontEndBenchmark is RunFrontEnd over a named synthetic benchmark.
func RunFrontEndBenchmark(p Predictor, prof Profile, instructions int64, opts Options) (FrontEndResult, error) {
	return sim.RunFrontEndBenchmark(p, prof, instructions, opts)
}

// EstimatePerf applies a performance model to a front-end run. It returns
// an error for degenerate inputs — instructions retired but zero cycles
// attributable to them — so a Report with a nil error is always internally
// consistent (IPC == Instructions/Cycles, no NaN/Inf); see internal/perf.
func EstimatePerf(m PerfModel, r FrontEndResult) (PerfReport, error) {
	return m.Estimate(perf.Inputs{
		Instructions: r.Instructions,
		Blocks:       r.Blocks,
		PCGen:        r.PCGen,
		LineMisses:   r.LineMisses,
	})
}
