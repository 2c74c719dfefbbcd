// Single-pass ensemble execution: run N predictor configurations over ONE
// traversal of a branch stream. The workload generation and the
// predictor-independent front end — fetch-block formation and the
// three-blocks-old lghist/path state (§2, §5 of the paper) — are computed
// exactly once per branch and fanned across the ensemble members, so a
// K-configuration sweep pays the dominant non-predictor cost once instead
// of K times. Every figure of the paper evaluates many configurations
// over the same eight streams; this is the engine that makes those sweeps
// cheap, in the trace-reuse tradition of the CBP championship kits.
//
// Correctness contract: the member results are byte-identical to N
// independent sim.Run calls over equal sources — same Branches,
// Mispredicts, Instructions, and (under Options.Collect) the same
// attribution counters. The repo-level ensemble differential suite pins
// this for every predictor family, benchmark, and update delay.
package sim

import (
	"context"
	"fmt"
	"io"

	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/stats"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// member is the per-configuration state of one ensemble slot: the
// predictor with its fused fast path, its own commit-delay ring, its own
// mispredict counter and its own attribution hook. Everything shared
// (stream position, trackers, the information vector, warmup gating)
// lives in RunEnsemble's locals.
type member struct {
	p           predictor.Predictor
	fp          predictor.FusedPredictor
	fused       bool
	inst        stats.Instrumented
	ring        []pendingUpdate
	head, count int
	mispredicts int64
}

// apply retires one pending update into the member's predictor.
func (m *member) apply(u *pendingUpdate) {
	if m.fused {
		m.fp.UpdateWith(u.snap, u.taken)
	} else {
		m.p.Update(&u.info, u.taken)
	}
}

// drain retires every pending update at end of stream, oldest first —
// the same queue flush sim.Run performs.
func (m *member) drain() {
	for m.count > 0 {
		m.apply(&m.ring[m.head])
		m.head++
		if m.head == len(m.ring) {
			m.head = 0
		}
		m.count--
	}
}

// fillBatch pulls the next run of records into buf: one NextBatch call
// when the source supports batching (bs caches the type assertion),
// trace.ReadBatch's per-record Next normalization otherwise. Both legs
// follow the trace.BatchSource contract — records first, then io.EOF
// for a clean end or the source's terminal error.
func fillBatch(src trace.Source, bs trace.BatchSource, buf []trace.Branch) (int, error) {
	if bs != nil {
		return bs.NextBatch(buf)
	}
	return trace.ReadBatch(src, buf)
}

// RunEnsemble simulates one cold predictor per factory over a single
// traversal of src. The stream is advanced once: each branch's front-end
// state (per-thread tracker, fetch-block formation, the mode's history
// variant) and information vector are computed exactly once and handed to
// every member, and members that observe fetch blocks (BlockObserver, the
// EV8 bank sequencer) all see the one shared block stream. Per member it
// keeps the exact semantics of Run — the fused Lookup/UpdateWith path
// when available, a private commit-delay ring under opts.UpdateDelay, and
// private attribution counters under opts.Collect — so the returned
// Results (factory order) are byte-identical to len(factories)
// independent Run calls over equal sources.
//
// All members share opts; in particular they see the same information
// vector (opts.Mode) — schemes needing different modes belong in
// different ensembles. The stream is pulled in batches sized like Run's
// (see fillWant), so under opts.MaxBranches the source stops exactly
// where Run's would. The per-branch loop allocates nothing in steady
// state, per member, preserving the repo's hot-path discipline.
//
// Errors: a factory failure aborts before any simulation; a mid-stream
// source failure returns the partial Results with the same error shape as
// Run. An empty factory list returns an empty, non-nil slice without
// touching src.
func RunEnsemble(factories []Factory, src trace.Source, opts Options) ([]Result, error) {
	return runEnsemble(factories, src, opts, nil)
}

// RunEnsembleFrom is the warm-state fan-out: every factory's member is
// restored from the SAME checkpoint — one warmup simulation, K copies of
// the warm state — and the ensemble continues over src, which must be
// positioned exactly ck.Records records into the checkpointed stream.
// Each member's Result covers the whole run (warm prefix plus
// continuation) and is bit-identical to an independent straight-through
// Run of that member; every member must implement predictor.Snapshotter
// and carry the checkpointed predictor's name and configuration.
// RunWarmEnsembleBenchmark packages the warm-once/fan-out-K sequence.
func RunEnsembleFrom(factories []Factory, src trace.Source, opts Options, ck *Checkpoint) ([]Result, error) {
	if ck == nil {
		return nil, fmt.Errorf("sim: nil checkpoint for warm ensemble")
	}
	return runEnsemble(factories, src, opts, ck)
}

// runEnsemble is the engine behind RunEnsemble and RunEnsembleFrom; a nil
// ck runs cold from the stream start.
func runEnsemble(factories []Factory, src trace.Source, opts Options, ck *Checkpoint) ([]Result, error) {
	results := make([]Result, len(factories))
	if len(factories) == 0 {
		return results, nil
	}
	members := make([]member, len(factories))
	var observers []BlockObserver
	for i, mk := range factories {
		p, err := mk()
		if err != nil {
			return nil, fmt.Errorf("sim: building ensemble member %d: %w", i, err)
		}
		m := &members[i]
		m.p = p
		m.fp, m.fused = p.(predictor.FusedPredictor)
		if ck != nil {
			// Restore BEFORE enabling attribution, exactly as in run():
			// enabling an already-collecting predictor is a no-op, so a
			// checkpointed collection window survives the hand-off.
			if err := ck.validateResume(p, opts); err != nil {
				return nil, fmt.Errorf("sim: warm ensemble member %d: %w", i, err)
			}
			if err := p.(predictor.Snapshotter).RestoreState(ck.PredictorState); err != nil {
				return nil, fmt.Errorf("sim: warm ensemble member %d: %w", i, err)
			}
		}
		if opts.Collect {
			if inst, ok := p.(stats.Instrumented); ok {
				m.inst = inst
				inst.EnableStats(true)
			}
		}
		if opts.UpdateDelay > 0 {
			m.ring = make([]pendingUpdate, opts.UpdateDelay)
			if ck != nil {
				for k := range ck.Pending {
					pu := &ck.Pending[k]
					m.ring[k] = pendingUpdate{info: pu.Info, snap: pu.Snap, taken: pu.Taken}
				}
				m.count = len(ck.Pending)
			}
		}
		if ck != nil {
			m.mispredicts = ck.Mispredicts
		}
		if obs, ok := p.(BlockObserver); ok {
			observers = append(observers, obs)
		}
		results[i] = Result{Predictor: p.Name(), SizeBits: p.SizeBits()}
	}
	// One tracker callback fans the shared block stream out to every
	// observing member, in member order.
	var onBlock func(frontend.Block)
	if len(observers) > 0 {
		onBlock = func(b frontend.Block) {
			for _, obs := range observers {
				obs.ObserveBlock(b)
			}
		}
	}

	var (
		trackers     trackerTable
		branches     int64 // conditional branches processed (pre-warmup-clamp)
		instructions int64 // instructions over the measured window
		srcErr       error
		// info is hoisted exactly as in Run: its address crosses
		// interface calls, so a loop-local would escape per branch.
		info   history.Info
		isCond bool
	)
	if ck != nil {
		// The front end is shared, so the warm tracker state is restored
		// once; the onBlock fan-out re-attaches to every observing member.
		for _, ts := range ck.Trackers {
			tr, err := trackers.create(ts.Thread, opts, onBlock)
			if err != nil {
				return results, err
			}
			if err := tr.RestoreState(ts.State); err != nil {
				return results, fmt.Errorf("sim: restoring tracker for thread %d: %w", ts.Thread, err)
			}
		}
		branches = ck.RawBranches
		instructions = ck.Instructions
	}
	bs, _ := src.(trace.BatchSource)

	// At update delay 0 the stream runs through the batch twin of this
	// loop (internal/sim/batch.go): the shared front-end walk stages
	// each chunk once, batch-capable members consume it through their
	// LookupBatch/UpdateBatch kernels, and the rest replay the staged
	// infos per branch — byte-identical results, pinned by the batch
	// differential suite. Block-observing members are allowed when they
	// implement the batched block contract (predictor.BlockBatchObserver):
	// the walk then captures their sequencer-dependent banks per branch
	// at the exact scalar interleaving point. A block observer WITHOUT
	// the contract forces the scalar loop — its per-branch state would
	// have advanced past the whole staged chunk. Under BatchOn an
	// ineligible ensemble is a typed error, never a silent fallback.
	batchReason := ""
	if opts.UpdateDelay != 0 {
		batchReason = fmt.Sprintf("update delay %d requires the scalar path", opts.UpdateDelay)
	} else if opts.Batch == BatchOff {
		batchReason = "batch kernel disabled (BatchOff)"
	} else {
		for _, obs := range observers {
			if _, ok := obs.(predictor.BlockBatchObserver); !ok {
				batchReason = fmt.Sprintf("block-observing member %T lacks the batched block contract (predictor.BlockBatchObserver)", obs)
				break
			}
		}
	}
	if batchReason == "" {
		serr, err := runEnsembleBatchStream(members, src, bs, opts, &trackers, &branches, &instructions, onBlock)
		if err != nil {
			return results, err
		}
		srcErr = serr
	} else if opts.Batch == BatchOn {
		return results, fmt.Errorf("%w: %s", ErrBatchIneligible, batchReason)
	} else {
		buf := make([]trace.Branch, batchChunk)
		for {
			want := fillWant(opts.MaxBranches, branches)
			if want == 0 {
				break
			}
			n, ferr := fillBatch(src, bs, buf[:want])
			for bi := 0; bi < n; bi++ {
				b := buf[bi]
				tr := trackers.lookup(b.Thread)
				if tr == nil {
					var err error
					tr, err = trackers.create(b.Thread, opts, onBlock)
					if err != nil {
						return results, err
					}
				}
				info, isCond = tr.Process(b)
				// The warmup gate is identical to Run's: a record is
				// measured iff at least Warmup conditional branches retired
				// before it, and the same boundary gates numerator and
				// denominator.
				measured := branches >= opts.Warmup
				if measured {
					instructions += int64(b.Gap) + 1
				}
				if !isCond {
					continue
				}
				for k := range members {
					m := &members[k]
					var pred bool
					var snap predictor.Snapshot
					if m.fused {
						snap = m.fp.Lookup(&info)
						pred = snap.Final
					} else {
						pred = m.p.Predict(&info)
					}
					if measured && pred != b.Taken {
						m.mispredicts++
					}
					switch {
					case opts.UpdateDelay > 0:
						// FIFO through the member's private ring, exactly
						// as in Run: full ⇒ the oldest pending update
						// retires and its slot is reused.
						if m.count == len(m.ring) {
							m.apply(&m.ring[m.head])
							m.ring[m.head] = pendingUpdate{info: info, snap: snap, taken: b.Taken}
							m.head++
							if m.head == len(m.ring) {
								m.head = 0
							}
						} else {
							slot := m.head + m.count
							if slot >= len(m.ring) {
								slot -= len(m.ring)
							}
							m.ring[slot] = pendingUpdate{info: info, snap: snap, taken: b.Taken}
							m.count++
						}
					case m.fused:
						m.fp.UpdateWith(snap, b.Taken)
					default:
						m.p.Update(&info, b.Taken)
					}
				}
				branches++
			}
			if ferr != nil {
				if ferr != io.EOF {
					srcErr = ferr
				}
				break
			}
			if n == 0 {
				// A batch source returning no progress and no error would
				// spin; treat it as end of stream defensively.
				break
			}
		}
	}
	for k := range members {
		members[k].drain()
	}
	if opts.Warmup > 0 {
		branches -= min(branches, opts.Warmup)
	}
	for i := range results {
		m := &members[i]
		results[i].Branches = branches
		results[i].Mispredicts = m.mispredicts
		results[i].Instructions = instructions
		if m.inst != nil {
			cs := m.inst.Stats()
			results[i].Stats = &cs
		}
	}
	if srcErr != nil {
		return results, fmt.Errorf("sim: source failed after %d branches: %w", branches, srcErr)
	}
	for i := range results {
		if err := results[i].Validate(); err != nil {
			return results, err
		}
	}
	return results, nil
}

// RunEnsembleBenchmark builds the named synthetic benchmark once and runs
// one predictor per factory over its single stream.
func RunEnsembleBenchmark(factories []Factory, prof workload.Profile, instrBudget int64, opts Options) ([]Result, error) {
	return runEnsembleBenchmarkCtx(context.Background(), factories, prof, instrBudget, opts)
}

// RunWarmEnsembleBenchmark amortizes warmup across an ensemble: ONE
// predictor from factory simulates the benchmark's first warmBranches
// conditional branches, its state is checkpointed, and k members resume
// from copies of that warm state over the continuation of the same stream
// — the warmup is simulated once instead of k times, extending the
// ensemble engine's work sharing to state sharing. The k Results are
// bit-identical to k independent straight-through RunBenchmark calls
// (which, for a deterministic factory, makes them k identical rows — the
// amortization matters when the caller perturbs each member's downstream
// handling, or simply wants the warm checkpoint validated cheaply).
// warmBranches must be positive and, when opts.MaxBranches is set, below
// it; the warm prefix runs with the same options.
func RunWarmEnsembleBenchmark(factory Factory, k int, prof workload.Profile, instrBudget, warmBranches int64, opts Options) ([]Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sim: warm ensemble needs k > 0, got %d", k)
	}
	if warmBranches <= 0 {
		return nil, fmt.Errorf("sim: warm ensemble needs warmBranches > 0, got %d", warmBranches)
	}
	if opts.MaxBranches > 0 && warmBranches >= opts.MaxBranches {
		return nil, fmt.Errorf("sim: warm prefix %d not below MaxBranches %d", warmBranches, opts.MaxBranches)
	}
	g, err := workload.New(prof, instrBudget)
	if err != nil {
		return nil, err
	}
	warm, err := factory()
	if err != nil {
		return nil, fmt.Errorf("sim: building warmup predictor: %w", err)
	}
	wopts := opts
	wopts.MaxBranches = warmBranches
	// The warm run never over-reads — the scalar loop reads one record
	// at a time, and the batch path sizes its fills so it stops at the
	// same record (see runBatchStream) — so the SAME generator continues
	// seamlessly into the ensemble, no reposition step.
	_, ck, err := RunCheckpoint(warm, g, wopts)
	if err != nil {
		return nil, fmt.Errorf("sim: warmup for %s: %w", prof.Name, err)
	}
	factories := make([]Factory, k)
	for i := range factories {
		factories[i] = factory
	}
	rs, err := RunEnsembleFrom(factories, g, opts, ck)
	for i := range rs {
		rs[i].Workload = prof.Name
	}
	return rs, err
}
