// Package sim drives trace-driven branch-prediction simulation: it feeds a
// branch source through the front-end tracker, hands each conditional
// branch's information vector to one or more predictors, and accumulates
// the paper's metric (mispredictions per 1000 instructions, "misp/KI").
//
// Every entry point runs the one stream engine in ensemble.go: Run,
// RunCheckpoint and ResumeFrom are an ensemble of one, RunEnsemble an
// ensemble of many, and RunFrontEnd adds the PC generator and the line
// predictor around it. Update timing follows the paper's methodology
// (§8.1.1): immediate update by default, with an optional commit-delay
// mode used to reproduce the authors' validation that the two are
// equivalent for these predictors.
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

// Options configures one simulation run. How a fan-out of runs is
// scheduled — worker count, ensemble grouping — is PoolOptions' concern.
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
	// Batch selects which members use the data-oriented batch kernel:
	// BatchAuto (the zero value) engages it for every member whose
	// predictor implements predictor.BatchPredictor and, if it observes
	// fetch blocks, the batched block contract (predictor.BlockBatchObserver
	// — the EV8 does), at any UpdateDelay (commit-delayed runs resolve
	// lagged behind their pending updates); BatchOff runs every member
	// per branch, the reference the differential suites compare against.
	// Results are byte-identical in both modes, so this is a schedule,
	// not a setting of the experiment: no command-line flag or served
	// spec exposes it, and it is excluded from cache keys.
	Batch BatchMode
	// Collect enables component attribution: when set and the predictor
	// implements stats.Instrumented, the run turns its counters on before
	// the stream and snapshots them into Result.Stats after. Collection
	// never touches the per-branch walk — enabling and snapshotting
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

// delayRing is the commit-delay queue: a fixed ring of UpdateDelay
// pending updates, oldest first, allocated once per run so the queue's
// memory stays constant however long the stream (a slice popped via
// queue[1:] would keep its dead head and regrow as appends wrap).
type delayRing struct {
	buf         []pendingUpdate
	head, count int
}

// newDelayRing allocates the ring for an update delay; delay 0 gets an
// empty ring that never holds anything.
func newDelayRing(delay int) delayRing {
	if delay <= 0 {
		return delayRing{}
	}
	return delayRing{buf: make([]pendingUpdate, delay)}
}

// full reports whether the next branch retires the oldest pending update.
func (r *delayRing) full() bool { return r.count == len(r.buf) }

// at returns the i-th oldest pending update (i < count).
func (r *delayRing) at(i int) *pendingUpdate {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// pop removes the oldest pending update and returns its slot, which stays
// valid until the next push.
func (r *delayRing) pop() *pendingUpdate {
	u := &r.buf[r.head]
	r.discard(1)
	return u
}

// discard drops the n oldest pending updates (n <= count).
func (r *delayRing) discard(n int) {
	r.head += n
	if r.head >= len(r.buf) {
		r.head -= len(r.buf)
	}
	r.count -= n
}

// push appends u as the newest pending update; the ring must not be full.
func (r *delayRing) push(u pendingUpdate) {
	*r.at(r.count) = u
	r.count++
}

// BlockObserver is implemented by predictors that need to see every
// completed fetch block, not just the branches — on the EV8 the
// bank-number sequencing advances on every block (§6.2). The engine
// replays each walked chunk's block log to the predictor: a per-branch
// member sees the blocks up to each branch's log mark before the branch,
// and a batch member replays the whole log through the batched block
// contract (predictor.BlockBatchObserver), capturing its banks at the
// marks.
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
// dense fast path is small enough to inline into the engine's walk.
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
func (t *trackerTable) create(id int, opts Options) (*frontend.Tracker, error) {
	if id < 0 {
		return nil, fmt.Errorf("sim: negative thread id %d in branch record", id)
	}
	tr := frontend.NewTracker(opts.Mode)
	tr.SetThread(id)
	tr.SetLenient(opts.LenientFlow)
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
// Run is the engine's ensemble of one (see RunEnsemble): a batch-capable
// predictor resolves each chunk through the batch kernel; otherwise the
// fused Lookup/UpdateWith pair computes each branch's index set exactly
// once, including through the commit-delay queue, and plain predictors
// use Predict/Update.
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

// run is Run, RunCheckpoint and ResumeFrom: an engine of one member,
// optionally seeded from a checkpoint (resume != nil) and optionally
// capturing one at the stop point (doCapture). Resume seeding and capture
// both happen outside the walk, preserving its zero-allocation discipline.
func run(p predictor.Predictor, src trace.Source, opts Options, resume *Checkpoint, doCapture bool) (Result, *Checkpoint, error) {
	rs := []Result{{Predictor: p.Name(), SizeBits: p.SizeBits()}}
	e := newEngine([]predictor.Predictor{p}, opts)
	if resume != nil {
		if err := resume.restoreInto(e); err != nil {
			return rs[0], nil, err
		}
	} else if _, ok := p.(predictor.Snapshotter); doCapture && !ok {
		// Fail before simulating anything: a checkpointing run against a
		// predictor that cannot snapshot would only discover it at the
		// stop point.
		return rs[0], nil, fmt.Errorf("%w (%s)", ErrNotSnapshottable, p.Name())
	}
	e.collect()
	var ck *Checkpoint
	var capture func() error
	if doCapture {
		capture = func() (err error) {
			ck, err = e.capture()
			return err
		}
	}
	if err := e.run(src, rs, capture); err != nil {
		return rs[0], nil, err
	}
	return rs[0], ck, nil
}

// RunBenchmark builds the named synthetic benchmark with instrBudget
// instructions and runs p over it. Outside pool jobs the generator runs
// ahead on a second CPU (see pipeline.go). For a cancelable variant see
// the pool: RunCells threads its context into every cell's stream.
func RunBenchmark(p predictor.Predictor, prof workload.Profile, instrBudget int64, opts Options) (Result, error) {
	g, err := workload.New(prof, instrBudget)
	if err != nil {
		return Result{}, err
	}
	src, stop := stream(context.Background(), g, opts.MaxBranches, pipelining())
	defer stop()
	r, err := Run(p, src, opts)
	r.Workload = prof.Name
	return r, err
}

// Factory builds a fresh predictor instance for one benchmark run.
// Experiments use factories so that every benchmark starts cold. Every
// call must build the same configuration: the result store keys a cell
// by one call's predictor.ConfigKey and runs another, and the cells of
// one SuiteCells call share the key of a single call.
type Factory func() (predictor.Predictor, error)

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
