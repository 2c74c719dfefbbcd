package sim

import (
	"errors"
	"fmt"

	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// FrontEndConfig sizes the non-conditional PC-generation structures for a
// full front-end run.
type FrontEndConfig struct {
	// JumpEntries sizes the jump predictor (default 4096).
	JumpEntries int
	// RASDepth sizes the return-address stack (default 32).
	RASDepth int
	// LineEntries sizes the line predictor (default 8192).
	LineEntries int
}

// withDefaults fills zero fields.
func (c FrontEndConfig) withDefaults() FrontEndConfig {
	if c.JumpEntries == 0 {
		c.JumpEntries = 4096
	}
	if c.RASDepth == 0 {
		c.RASDepth = 32
	}
	if c.LineEntries == 0 {
		c.LineEntries = 8192
	}
	return c
}

// FrontEndResult extends Result with whole-front-end statistics.
type FrontEndResult struct {
	Result
	// PCGen holds per-kind redirect counts.
	PCGen frontend.PCGenStats
	// Blocks is the number of fetch blocks formed.
	Blocks int64
	// LineMisses counts next-block-address mispredictions by the line
	// predictor.
	LineMisses int64
	// RASAccuracy and JumpAccuracy are the auxiliary predictors' hit
	// rates; LineAccuracy is the line predictor's.
	RASAccuracy  float64
	JumpAccuracy float64
	LineAccuracy float64
}

// ErrFrontEndOption reports an Options field or a source RunFrontEnd does
// not support; the wrapping error names it. The PC generator's counts
// have no warmup window, so Warmup is rejected. The PC generator and the
// line predictor hold one thread's state, so a record from a second
// thread is rejected too.
var ErrFrontEndOption = errors.New("sim: option not supported by RunFrontEnd")

// RunFrontEnd simulates the whole §2 PC-address generator: the
// conditional predictor p (nil = oracle, for upper-bound studies), the
// jump predictor, the return-address stack, and the line predictor, over
// a single-threaded source. It runs the stream engine with p as its only
// member (none for the oracle): the line predictor reads each walked
// chunk's block log, and the PC generator replays the chunk's records
// against p's predictions. The Result therefore equals Run's under the same Options;
// Warmup, and a record from a second thread, fail with ErrFrontEndOption.
// Like Run, it returns an error when the source fails mid-stream rather
// than reporting a short-but-successful result, and checks the result
// with Result.Validate.
func RunFrontEnd(p predictor.Predictor, src trace.Source, opts Options, fecfg FrontEndConfig) (FrontEndResult, error) {
	fecfg = fecfg.withDefaults()
	var res FrontEndResult
	if opts.Warmup != 0 {
		return res, fmt.Errorf("%w: Warmup", ErrFrontEndOption)
	}
	res.Predictor = "oracle"
	var ps []predictor.Predictor
	if p != nil {
		ps = append(ps, p)
		res.Predictor, res.SizeBits = p.Name(), p.SizeBits()
	}
	pg := frontend.MustNewPCGen(fecfg.JumpEntries, fecfg.RASDepth)
	lp := frontend.MustNewLinePredictor(fecfg.LineEntries)
	e := newEngine(ps, opts)
	first := -1
	e.front.newThread = func(id int) error {
		if first >= 0 {
			return fmt.Errorf("%w: record from thread %d after thread %d (multi-thread source)", ErrFrontEndOption, id, first)
		}
		first = id
		return nil
	}
	e.afterChunk = func(recs []trace.Branch, log *frontend.BlockLog) {
		for i := range log.Entries {
			log.Entries[i].EachBlock(lp.Observe)
		}
		j := 0
		for _, b := range recs {
			pred := false
			if b.Kind == trace.Cond {
				pred = b.Taken // oracle
				if p != nil {
					pred = e.members[0].finals[j>>6]>>(uint(j)&63)&1 == 1
				}
				j++
			}
			pg.Process(b, pred)
		}
	}
	e.collect()
	rs := []Result{res.Result}
	err := e.run(src, false, rs, nil)
	res.Result = rs[0]
	res.PCGen = pg.Stats()
	e.front.trackers.each(func(_ int, tr *frontend.Tracker) { res.Blocks += tr.Blocks() })
	res.RASAccuracy = pg.RASAccuracy()
	res.JumpAccuracy = pg.JumpAccuracy()
	res.LineAccuracy = lp.Accuracy()
	res.LineMisses = lp.Misses()
	return res, err
}

// RunFrontEndBenchmark is RunFrontEnd over a named synthetic benchmark.
func RunFrontEndBenchmark(p predictor.Predictor, prof workload.Profile, instrBudget int64, opts Options, fecfg FrontEndConfig) (FrontEndResult, error) {
	g, err := workload.New(prof, instrBudget)
	if err != nil {
		return FrontEndResult{}, err
	}
	r, err := RunFrontEnd(p, g, opts, fecfg)
	r.Workload = prof.Name
	return r, err
}
