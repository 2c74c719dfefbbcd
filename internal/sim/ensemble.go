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

// member is the per-configuration state of one ensemble slot (and of a
// solo Run): the predictor with its fused fast path, its own commit-delay
// ring, its own mispredict counter and its own attribution hook.
// Everything shared (stream position, trackers, the information vector,
// warmup gating) lives in the stream loop's locals.
type member struct {
	p           predictor.Predictor
	fp          predictor.FusedPredictor
	fused       bool
	inst        stats.Instrumented
	ring        delayRing
	mispredicts int64
}

// newMember wraps p with its fused fast path and a commit-delay ring.
func newMember(p predictor.Predictor, delay int) *member {
	m := &member{p: p, ring: newDelayRing(delay)}
	m.fp, m.fused = p.(predictor.FusedPredictor)
	return m
}

// predict runs the read side for one branch: the fused Lookup when
// available (its snapshot rides to update time), Predict otherwise.
func (m *member) predict(info *history.Info) (bool, predictor.Snapshot) {
	if m.fused {
		s := m.fp.Lookup(info)
		return s.Final, s
	}
	return m.p.Predict(info), predictor.Snapshot{}
}

// train hands one branch's outcome to the predictor: immediately at
// update delay 0, otherwise FIFO through the ring — when full, the oldest
// pending update retires into the predictor and its slot is reused.
func (m *member) train(info *history.Info, snap predictor.Snapshot, taken bool) {
	switch {
	case m.ring.buf != nil:
		if m.ring.full() {
			m.apply(m.ring.pop())
		}
		m.ring.push(pendingUpdate{info: *info, snap: snap, taken: taken})
	case m.fused:
		m.fp.UpdateWith(snap, taken)
	default:
		m.p.Update(info, taken)
	}
}

// apply retires one pending update into the member's predictor.
func (m *member) apply(u *pendingUpdate) {
	if m.fused {
		m.fp.UpdateWith(u.snap, u.taken)
	} else {
		m.p.Update(&u.info, u.taken)
	}
}

// drain retires every pending update at end of stream, oldest first.
func (m *member) drain() {
	for m.ring.count > 0 {
		m.apply(m.ring.pop())
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
		members[i] = *newMember(p, opts.UpdateDelay)
		m := &members[i]
		if opts.Collect {
			if inst, ok := p.(stats.Instrumented); ok {
				m.inst = inst
				inst.EnableStats(true)
			}
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
	bs, _ := src.(trace.BatchSource)

	// The stream runs through the batch twin of this loop
	// (internal/sim/batch.go): the shared front-end walk stages each
	// chunk once, batch-capable members consume it through their
	// LookupBatch/UpdateBatchLagged kernels, and the rest replay the
	// staged infos per branch — byte-identical results at every update
	// delay, pinned by the batch differential suite. Block-observing
	// members are allowed when they implement the batched block contract
	// (predictor.BlockBatchObserver): the walk then captures their
	// sequencer-dependent banks per branch at the exact scalar
	// interleaving point. A block observer WITHOUT
	// the contract forces the scalar loop — its per-branch state would
	// have advanced past the whole staged chunk. Under BatchOn an
	// ineligible ensemble is a typed error, never a silent fallback.
	batchReason := ""
	if opts.Batch == BatchOff {
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
					pred, snap := m.predict(&info)
					if measured && pred != b.Taken {
						m.mispredicts++
					}
					m.train(&info, snap, b.Taken)
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
