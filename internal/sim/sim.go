// Package sim drives trace-driven branch-prediction simulation: it feeds a
// branch source through the front-end tracker, hands each conditional
// branch's information vector to a predictor, and accumulates the paper's
// metric (mispredictions per 1000 instructions, "misp/KI").
//
// Update timing follows the paper's methodology (§8.1.1): immediate update
// by default, with an optional commit-delay mode used to reproduce the
// authors' validation that the two are equivalent for these predictors.
package sim

import (
	"context"
	"fmt"

	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/stats"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// Options configures one simulation run.
type Options struct {
	// Mode selects the information vector (defaults to conventional
	// ghist, the academic baseline).
	Mode frontend.Mode
	// MaxBranches stops the run after this many conditional branches
	// (<= 0: run the source dry).
	MaxBranches int64
	// UpdateDelay postpones predictor updates by this many conditional
	// branches, approximating update-at-commit. 0 = immediate update.
	UpdateDelay int
	// Warmup excludes the first Warmup conditional branches from the
	// statistics (they still train the predictor). The measured window
	// opens when the Warmup-th conditional branch retires: a record's
	// instructions (Gap + the record itself) count toward Instructions
	// exactly when at least Warmup conditional branches retired before
	// that record, and the same boundary gates Mispredicts, so numerator
	// and denominator cover the same window. The paper's runs are long
	// enough not to need it; short tests use it.
	Warmup int64
	// LenientFlow lets the front-end trackers absorb flow
	// discontinuities instead of panicking. Needed when several threads
	// are forced through one shared history context (the §3
	// shared-history SMT model).
	LenientFlow bool
	// Workers bounds how many benchmark cells suite-level drivers
	// (RunSuite, RunCells, the sweep and experiment harnesses) simulate
	// concurrently: 0 uses one worker per CPU, 1 forces the serial
	// debugging path. It has no effect on a single Run, which consumes its
	// stream serially without reordering records; outside pool jobs, only
	// the generator of a RunBenchmark or RunEnsembleBenchmark stream runs
	// ahead on a second CPU (see pipeline.go).
	Workers int
	// Ensemble selects how suite-level drivers schedule cells that share
	// a workload: EnsembleAuto (the zero value) groups them into one
	// single-pass ensemble per benchmark when that amortization is worth
	// it, EnsembleOn forces grouping, EnsembleOff forces the per-cell
	// path. Results are byte-identical in every mode (see
	// docs/PERFORMANCE.md, "Ensemble execution"); like Workers, it has no
	// effect on a single Run.
	Ensemble EnsembleMode
	// Batch selects whether eligible runs use the data-oriented batch
	// kernel: BatchAuto (the zero value) engages it when the predictor
	// implements predictor.BatchPredictor, the source implements
	// trace.BatchSource, UpdateDelay is 0 and any fetch-block-observing
	// predictor also implements the batched block contract
	// (predictor.BlockBatchObserver — the EV8 does); BatchOff forces
	// the scalar fused path; BatchOn makes an ineligible run fail with
	// ErrBatchIneligible instead of silently running scalar. Results
	// are byte-identical in every mode (the batch differential suite
	// pins that), so like Workers and Ensemble this is a schedule knob,
	// excluded from cache keys.
	Batch BatchMode
	// Collect enables component attribution: when set and the predictor
	// implements stats.Instrumented, Run turns its counters on before
	// the stream and snapshots them into Result.Stats after. Collection
	// never touches the per-branch hot loop — enabling and snapshotting
	// happen once per run, and the predictor-side counting is gated
	// behind the interface's own flag — and never changes predictions:
	// the Result's core fields are byte-identical with Collect on or
	// off (see docs/OBSERVABILITY.md).
	Collect bool
}

// Result summarizes one run.
type Result struct {
	Predictor    string
	Workload     string
	Branches     int64 // measured conditional branches
	Mispredicts  int64
	Instructions int64 // total instructions over the measured stream
	SizeBits     int
	// Stats holds the predictor's component-attribution counters when
	// the run was executed with Options.Collect and the predictor
	// implements stats.Instrumented; nil otherwise. It is a pointer so
	// Result stays comparable with == (the differential suites rely on
	// that); two Results from identical runs with Collect enabled
	// compare unequal only by this pointer.
	Stats *stats.Counters
}

// MispKI returns mispredictions per 1000 instructions, the paper's metric.
func (r Result) MispKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return 1000 * float64(r.Mispredicts) / float64(r.Instructions)
}

// Accuracy returns the fraction of branches predicted correctly.
func (r Result) Accuracy() float64 {
	if r.Branches == 0 {
		return 0
	}
	return 1 - float64(r.Mispredicts)/float64(r.Branches)
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s on %s: %.3f misp/KI (%.2f%% accuracy, %d branches)",
		r.Predictor, r.Workload, r.MispKI(), 100*r.Accuracy(), r.Branches)
}

// Validate checks the internal consistency of a Result: counts must be
// non-negative, mispredictions cannot exceed branches, and every measured
// branch carries at least one instruction. Run applies it before
// returning, so an accounting bug surfaces as an error instead of a
// quietly wrong table row.
func (r Result) Validate() error {
	switch {
	case r.Branches < 0 || r.Mispredicts < 0 || r.Instructions < 0:
		return fmt.Errorf("sim: invalid result: negative count in %+v", r)
	case r.Mispredicts > r.Branches:
		return fmt.Errorf("sim: invalid result: %d mispredicts exceed %d branches", r.Mispredicts, r.Branches)
	case r.Branches > r.Instructions:
		return fmt.Errorf("sim: invalid result: %d branches exceed %d instructions", r.Branches, r.Instructions)
	}
	return nil
}

// pendingUpdate is a deferred training event for the commit-delay mode.
// For fused predictors it carries the prediction-time snapshot instead of
// the information vector: the index set computed at fetch survives the
// queue, as on the hardware, and is never re-derived.
type pendingUpdate struct {
	info  history.Info
	snap  predictor.Snapshot
	taken bool
}

// BlockObserver is implemented by predictors that need to see every
// completed fetch block, not just the branches — on the EV8 the
// bank-number sequencing advances on every block (§6.2). Run wires the
// front-end trackers' block stream to the predictor automatically.
type BlockObserver interface {
	ObserveBlock(frontend.Block)
}

// maxDenseThread bounds the dense thread-id → tracker table. Real thread
// ids come from the SMT interleaver and are tiny (the EV8 has four
// hardware threads); the bound only matters for file-backed traces,
// whose thread field can hold anything up to the format's limit — a
// sparse map absorbs those without a giant allocation.
const maxDenseThread = 4096

// trackerTable maps thread ids to per-thread front-end trackers. The hot
// path is a dense slice lookup (thread ids are small ints from the SMT
// interleaver — satellite of the ensemble PR replacing the old per-branch
// map lookup); ids beyond maxDenseThread spill to a lazily built map so a
// hostile trace cannot force an enormous dense table.
type trackerTable struct {
	dense  []*frontend.Tracker
	sparse map[int]*frontend.Tracker
}

// lookup returns the tracker for id, or nil if none exists yet. The
// dense fast path is small enough to inline into the simulation loops.
func (t *trackerTable) lookup(id int) *frontend.Tracker {
	if uint(id) < uint(len(t.dense)) {
		return t.dense[id]
	}
	return t.lookupSparse(id)
}

// lookupSparse is the out-of-line slow path of lookup.
func (t *trackerTable) lookupSparse(id int) *frontend.Tracker {
	if t.sparse == nil {
		return nil
	}
	return t.sparse[id]
}

// create builds, registers and returns the tracker for a first-seen
// thread id. A negative id cannot come from a valid trace (the trace
// writer rejects it) and is reported as an error instead of growing a
// table backwards.
func (t *trackerTable) create(id int, opts Options, onBlock func(frontend.Block)) (*frontend.Tracker, error) {
	if id < 0 {
		return nil, fmt.Errorf("sim: negative thread id %d in branch record", id)
	}
	tr := frontend.NewTracker(opts.Mode)
	tr.SetThread(id)
	tr.SetLenient(opts.LenientFlow)
	if onBlock != nil {
		tr.OnBlock(onBlock)
	}
	if id < maxDenseThread {
		for len(t.dense) <= id {
			t.dense = append(t.dense, nil)
		}
		t.dense[id] = tr
	} else {
		if t.sparse == nil {
			t.sparse = map[int]*frontend.Tracker{}
		}
		t.sparse[id] = tr
	}
	return tr, nil
}

// Run simulates p over src. Per-thread front-end trackers are created on
// demand, so SMT-interleaved sources work transparently (each thread gets
// its own history registers and path queue, as on the real machine).
//
// When p implements predictor.FusedPredictor the hot loop computes each
// branch's index set exactly once (Lookup) and trains from the carried
// snapshot (UpdateWith), including through the commit-delay queue; plain
// predictors use the Predict/Update pair as before.
//
// Run returns an error when the source fails mid-stream (it implements
// trace.ErrSource and reports a decode error — a truncated or corrupted
// trace file must not be mistaken for a short-but-valid run) or when the
// accumulated Result fails its sanity check. The Result reflects the
// branches processed before the failure.
func Run(p predictor.Predictor, src trace.Source, opts Options) (Result, error) {
	res, _, err := run(p, src, opts, nil, false)
	return res, err
}

// run is the engine behind Run, RunCheckpoint and ResumeFrom: one loop,
// optionally seeded from a checkpoint (resume != nil) and optionally
// capturing one at the stop point (doCapture). The per-branch path is
// identical in all modes — resume seeding and capture both happen outside
// the loop, preserving the zero-allocation discipline.
func run(p predictor.Predictor, src trace.Source, opts Options, resume *Checkpoint, doCapture bool) (Result, *Checkpoint, error) {
	res := Result{Predictor: p.Name(), SizeBits: p.SizeBits()}
	var trackers trackerTable
	var onBlock func(frontend.Block)
	if obs, ok := p.(BlockObserver); ok {
		onBlock = obs.ObserveBlock
	}
	fp, fused := p.(predictor.FusedPredictor)

	var records int64
	if resume != nil {
		if err := resume.validateResume(p, opts); err != nil {
			return res, nil, err
		}
		if err := resume.restoreInto(p, opts, &trackers, onBlock); err != nil {
			return res, nil, err
		}
		records = resume.Records
		res.Branches = resume.RawBranches
		res.Mispredicts = resume.Mispredicts
		res.Instructions = resume.Instructions
	} else if doCapture {
		// Fail before simulating anything: a checkpointing run against a
		// predictor that cannot snapshot would only discover it at the
		// stop point.
		if _, ok := p.(predictor.Snapshotter); !ok {
			return res, nil, fmt.Errorf("%w (%s)", ErrNotSnapshottable, p.Name())
		}
	}

	// Attribution is enabled once, before the stream; the hot loop below
	// is identical with or without it (the predictor gates its own
	// counting). The snapshot happens after the commit-delay queue
	// drains so delayed updates are attributed too. On resume this runs
	// AFTER the state restore: enabling an already-collecting predictor
	// is a no-op, so a checkpointed collection window survives.
	var inst stats.Instrumented
	if opts.Collect {
		inst, _ = p.(stats.Instrumented)
		if inst != nil {
			inst.EnableStats(true)
		}
	}

	// The commit-delay queue is a fixed ring of UpdateDelay slots,
	// allocated once per run: the old slice queue popped via queue[1:],
	// retaining the dead head of the backing array for the life of the
	// run and growing the backing array as appends wrapped.
	var ring []pendingUpdate
	var head, count int
	if opts.UpdateDelay > 0 {
		ring = make([]pendingUpdate, opts.UpdateDelay)
	}
	if resume != nil {
		for i := range resume.Pending {
			pu := &resume.Pending[i]
			ring[i] = pendingUpdate{info: pu.Info, snap: pu.Snap, taken: pu.Taken}
		}
		count = len(resume.Pending)
	}
	apply := func(u *pendingUpdate) {
		if fused {
			fp.UpdateWith(u.snap, u.taken)
		} else {
			p.Update(&u.info, u.taken)
		}
	}

	// The batch kernel takes over the whole stream when the run is
	// eligible (see internal/sim/batch.go for the eligibility argument);
	// the result is byte-identical to the scalar loop below. Under
	// BatchOn an ineligible run is a typed error, never a silent scalar
	// fallback.
	if bp, bs, reason := planBatch(p, src, opts, onBlock != nil); bp != nil {
		if err := runBatchStream(bp, bs, opts, &res, &records, &trackers, onBlock); err != nil {
			return res, nil, err
		}
		return finishRun(p, src, opts, res, records, &trackers, ring, head, count, inst, doCapture, apply)
	} else if opts.Batch == BatchOn {
		return res, nil, fmt.Errorf("%w: %s", ErrBatchIneligible, reason)
	}

	// info is hoisted out of the loop: its address is passed through
	// interface calls, so a loop-local would escape and cost one heap
	// allocation per branch. Hoisted, the whole run allocates it once.
	var info history.Info
	var isCond bool
	for {
		if opts.MaxBranches > 0 && res.Branches >= opts.MaxBranches {
			break
		}
		b, ok := src.Next()
		if !ok {
			break
		}
		records++
		tr := trackers.lookup(b.Thread)
		if tr == nil {
			var err error
			tr, err = trackers.create(b.Thread, opts, onBlock)
			if err != nil {
				return res, nil, err
			}
		}
		info, isCond = tr.Process(b)
		// One gate decides the whole record: it is measured iff the
		// warmup boundary (retirement of conditional branch #Warmup)
		// lies before it. For a conditional record this is the same
		// condition as "this is branch #Warmup+1 or later".
		measured := res.Branches >= opts.Warmup
		if measured {
			res.Instructions += int64(b.Gap) + 1
		}
		if !isCond {
			continue
		}
		var pred bool
		var snap predictor.Snapshot
		if fused {
			snap = fp.Lookup(&info)
			pred = snap.Final
		} else {
			pred = p.Predict(&info)
		}
		if measured && pred != b.Taken {
			res.Mispredicts++
		}
		res.Branches++
		switch {
		case opts.UpdateDelay > 0:
			// FIFO through the ring: when full, the oldest pending
			// update retires into the predictor and its slot is reused.
			if count == len(ring) {
				apply(&ring[head])
				ring[head] = pendingUpdate{info: info, snap: snap, taken: b.Taken}
				head++
				if head == len(ring) {
					head = 0
				}
			} else {
				i := head + count
				if i >= len(ring) {
					i -= len(ring)
				}
				ring[i] = pendingUpdate{info: info, snap: snap, taken: b.Taken}
				count++
			}
		case fused:
			fp.UpdateWith(snap, b.Taken)
		default:
			p.Update(&info, b.Taken)
		}
	}
	return finishRun(p, src, opts, res, records, &trackers, ring, head, count, inst, doCapture, apply)
}

// finishRun is the common epilogue of the scalar and batch stream loops:
// checkpoint capture, commit-delay ring drain, warmup clamp, attribution
// snapshot, deferred source-error check, and the result sanity check.
func finishRun(p predictor.Predictor, src trace.Source, opts Options, res Result, records int64, trackers *trackerTable, ring []pendingUpdate, head, count int, inst stats.Instrumented, doCapture bool, apply func(*pendingUpdate)) (Result, *Checkpoint, error) {
	// Capture the checkpoint BEFORE the ring drains and before the warmup
	// clamp: the pending updates belong to the continuation (a resumed run
	// retires them through its own stream), and the resumed warmup gate
	// needs the raw branch count. A source failure voids the capture below.
	var ck *Checkpoint
	if doCapture {
		var err error
		ck, err = capture(p, opts, trackers, ring, head, count, records, res)
		if err != nil {
			return res, nil, err
		}
	}
	for count > 0 {
		apply(&ring[head])
		head++
		if head == len(ring) {
			head = 0
		}
		count--
	}
	// Report only measured branches. The clamp matters when the stream
	// ends at or before the warmup boundary (res.Branches <= Warmup):
	// zero branches were measured, and the old `> Warmup` guard left the
	// raw count in place, over-reporting by up to Warmup at the boundary.
	if opts.Warmup > 0 {
		res.Branches -= min(res.Branches, opts.Warmup)
	}
	if inst != nil {
		cs := inst.Stats()
		res.Stats = &cs
	}
	if err := trace.SourceErr(src); err != nil {
		return res, nil, fmt.Errorf("sim: source failed after %d branches: %w", res.Branches, err)
	}
	if err := res.Validate(); err != nil {
		return res, nil, err
	}
	return res, ck, nil
}

// RunBenchmark builds the named synthetic benchmark with instrBudget
// instructions and runs p over it. For a cancelable variant see the
// pool: RunCells threads its context into every cell's stream.
func RunBenchmark(p predictor.Predictor, prof workload.Profile, instrBudget int64, opts Options) (Result, error) {
	return runBenchmarkCtx(context.Background(), p, prof, instrBudget, opts)
}

// Factory builds a fresh predictor instance for one benchmark run.
// Experiments use factories so that every benchmark starts cold.
type Factory func() (predictor.Predictor, error)

// RunSuite runs a fresh predictor from factory over every profile. The
// benchmark cells run in parallel (bounded by opts.Workers; every cell is
// a cold predictor over an independent deterministic stream) and the
// results come back in profile order, identical to a serial run.
func RunSuite(factory Factory, profs []workload.Profile, instrBudget int64, opts Options) ([]Result, error) {
	return RunCells(context.Background(), SuiteCells(factory, profs, opts), instrBudget,
		PoolOptions{Workers: opts.Workers, Ensemble: opts.Ensemble})
}

// Mean returns the arithmetic mean misp/KI across results (the summary
// statistic the experiment harness reports next to per-benchmark rows).
func Mean(rs []Result) float64 {
	if len(rs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rs {
		sum += r.MispKI()
	}
	return sum / float64(len(rs))
}
