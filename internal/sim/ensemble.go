// The stream engine: every entry point of this package — Run,
// RunCheckpoint, ResumeFrom, RunEnsemble and RunFrontEnd — simulates N ≥ 0
// predictor configurations over ONE traversal of a branch stream through
// this engine; a solo run is an ensemble of one. The workload generation
// and the predictor-independent front end — fetch-block formation and the
// three-blocks-old lghist/path state (§2, §5 of the paper) — are computed
// exactly once per branch and fanned across the members, so a
// K-configuration sweep pays the dominant non-predictor cost once instead
// of K times. Every figure of the paper evaluates many configurations over
// the same eight streams; this is the engine that makes those sweeps
// cheap, in the trace-reuse tradition of the CBP championship kits.
//
// The engine takes the stream as walked chunks (pipeline.go): each fill
// of fillWant records has been walked once through the per-thread
// front-end trackers, which wrote the chunk's information vectors and
// logged its fetch blocks (frontend.BlockLog), inline or ahead in a
// producer goroutine. Warmup gating, the MaxBranches stop and the split
// between immediate and deferred errors live in this loop and the fill,
// and nowhere else. One per-member rule then
// picks the schedule (see newMember): batch members resolve the whole
// walked chunk through their LookupBatch/UpdateBatchLagged kernels
// (batch.go), a block-observing one after replaying the log
// (ObserveBlockLog); every other member — BatchOff, predictors without
// the batch contract, block observers without the batched block contract
// — runs per branch over the chunk, a block observer seeing the logged
// blocks up to each branch's mark first, at exactly the point a
// record-at-a-time loop would call it, with its own commit-delay ring.
// Reordering the (branch, member) loop nest is safe because member state
// is private; the shared front end is sequenced identically for every
// member.
//
// Correctness contract: the member results are byte-identical to N
// independent sim.Run calls over equal sources, on every schedule — same
// Branches, Mispredicts, Instructions, and (under Options.Collect) the
// same attribution counters. The repo-level ensemble, batch and fused
// differential suites pin this for every predictor family, benchmark, and
// update delay.
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

// member is the per-configuration state of one engine slot: the
// predictor with its fused fast path, its schedule, its own commit-delay
// ring, its own predictions for the current chunk, its own mispredict
// counter and its own attribution hook. Everything shared (stream
// position, trackers, the information vectors, warmup gating) lives in
// the engine.
type member struct {
	p     predictor.Predictor
	fp    predictor.FusedPredictor
	fused bool
	// bp is set for a batch member, which resolves each walked chunk
	// through the kernel; nil means the member steps each walked chunk
	// branch by branch.
	bp predictor.BatchPredictor
	// bbo is set for a batch member that observes fetch blocks: its log
	// replay captures its sequencer-dependent bank per branch into banks.
	bbo   predictor.BlockBatchObserver
	banks []uint8
	// obs is set for a per-branch member that observes fetch blocks.
	obs    BlockObserver
	inst   stats.Instrumented
	ring   delayRing
	finals []uint64 // the chunk's predictions, bit j for branch j
	// mispredicts counts the measured window, raw through the run.
	mispredicts int64
}

// newMember wraps p with its fused fast path, its commit-delay ring and
// its schedule. A member is a batch member when p implements
// predictor.BatchPredictor, the run is not under BatchOff, and — if p
// observes fetch blocks — p also implements the batched block contract
// (predictor.BlockBatchObserver): its sequencer-dependent banks are then
// captured at each branch's log mark, the point the per-branch schedule
// would call Lookup. A BlockBatchObserver that observes no blocks keeps a
// frozen sequencer, which plain LookupBatch reads live.
func newMember(p predictor.Predictor, opts Options) member {
	m := member{p: p, ring: newDelayRing(opts.UpdateDelay), finals: make([]uint64, predictor.BatchWords(batchChunk))}
	m.fp, m.fused = p.(predictor.FusedPredictor)
	bp, batch := p.(predictor.BatchPredictor)
	bbo, banked := p.(predictor.BlockBatchObserver)
	obs, observes := p.(BlockObserver)
	switch {
	case batch && opts.Batch != BatchOff && (banked || !observes):
		m.bp = bp
		if observes {
			m.bbo, m.banks = bbo, make([]uint8, batchChunk)
		}
	case observes:
		m.obs = obs
	}
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

// step runs one branch of the per-branch schedule: predict, record the
// prediction as chunk lane j, and train.
func (m *member) step(info *history.Info, j int, taken bool) {
	pred, snap := m.predict(info)
	stageTaken(m.finals, j, pred)
	m.train(info, snap, taken)
}

// stepChunk runs a per-branch member over the m branches of walked chunk
// c, whose outcomes start at lane pre of taken. A block observer first
// sees the logged blocks up to each branch's mark, as a record-at-a-time
// loop interleaves blocks and branches, and the chunk's remaining blocks
// last.
func (mem *member) stepChunk(c *chunk, taken []uint64, pre, m int) {
	e := 0
	for j := 0; j < m; j++ {
		if mem.obs != nil {
			e = observeLog(mem.obs, c.log.Entries, e, int(c.log.Marks[j]))
		}
		w := pre + j
		mem.step(&c.infos[j], j, taken[w>>6]>>(uint(w)&63)&1 == 1)
	}
	if mem.obs != nil {
		observeLog(mem.obs, c.log.Entries, e, len(c.log.Entries))
	}
}

// observeLog hands obs the blocks of entries [from, to) and returns to.
func observeLog(obs BlockObserver, entries []frontend.LogEntry, from, to int) int {
	for ; from < to; from++ {
		entries[from].EachBlock(obs.ObserveBlock)
	}
	return to
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

// resolve runs a batch member over the m branches of walked chunk c: the
// index pass over its infos (or banks), then the in-order resolve over
// the window of pre pending updates and the chunk, lagged by lag.
func (mem *member) resolve(c *chunk, s *batchScratch, pre, lag, m int) {
	win := s.snaps[:pre+m]
	stagePending(&mem.ring, win, pre)
	if mem.bbo != nil {
		mem.bbo.LookupBankedBatch(c.infos[:m], mem.banks[:m], win[pre:])
	} else {
		mem.bp.LookupBatch(c.infos[:m], win[pre:])
	}
	mem.bp.UpdateBatchLagged(win, pre, lag, s.taken, mem.finals)
	retireWindow(&mem.ring, c.infos, win, s.taken, pre, m)
}

// engine is the state of one traversal: its members, its front end and
// the consumer's counts.
type engine struct {
	opts    Options
	members []member
	front   walker
	// afterChunk, if set, sees each walked chunk's records and block log
	// once every member has resolved it.
	afterChunk func(recs []trace.Branch, log *frontend.BlockLog)
	// branches is the raw (pre-warmup-clamp) conditional branch count the
	// members have resolved; instructions the measured window's.
	branches, instructions int64
}

// newEngine builds the engine for ps under opts.
func newEngine(ps []predictor.Predictor, opts Options) *engine {
	e := &engine{opts: opts, members: make([]member, len(ps))}
	e.front.opts = &e.opts
	e.front.threads = frontend.Threads{Mode: opts.Mode, Lenient: opts.LenientFlow}
	for k, p := range ps {
		e.members[k] = newMember(p, opts)
	}
	return e
}

// collect turns on attribution for every instrumented member under
// Options.Collect. It runs once, before the stream — after a resume's
// state restore, where enabling an already-collecting predictor is a
// no-op, so a checkpointed collection window survives. The walk is
// identical with or without it (the predictor gates its own counting).
func (e *engine) collect() {
	if !e.opts.Collect {
		return
	}
	for k := range e.members {
		m := &e.members[k]
		if m.inst, _ = m.p.(stats.Instrumented); m.inst != nil {
			m.inst.EnableStats(true)
		}
	}
}

// run simulates the stream, its front end walked ahead in a producer
// goroutine when pipelined, and fills results: one per member, or one for
// a member-less (oracle) run, which mispredicts nothing. capture, if set,
// runs at a clean stop, before the commit-delay rings drain and before
// the warmup clamp: the pending updates belong to a continuation, and a
// resumed warmup gate needs the raw branch count. An immediate error (a
// bad thread id) aborts with the results unfilled; a mid-stream source
// failure returns the filled results with an error, so a short stream
// never passes for a whole one.
func (e *engine) run(src trace.Source, pipelined bool, results []Result, capture func() error) error {
	srcErr, err := e.walk(src, pipelined)
	if err != nil {
		return err
	}
	if capture != nil && srcErr == nil {
		if err := capture(); err != nil {
			return err
		}
	}
	// Report only measured branches: zero when the stream ends at or
	// before the warmup boundary.
	branches := e.branches - min(e.branches, e.opts.Warmup)
	for k := range results {
		results[k].Branches = branches
		results[k].Instructions = e.instructions
	}
	for k := range e.members {
		m := &e.members[k]
		for m.ring.count > 0 {
			m.apply(m.ring.pop())
		}
		results[k].Mispredicts = m.mispredicts
		if m.inst != nil {
			cs := m.inst.Stats()
			results[k].Stats = &cs
		}
	}
	if srcErr != nil {
		return fmt.Errorf("sim: source failed after %d branches: %w", branches, srcErr)
	}
	for k := range results {
		if err := results[k].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// walk is the one stream loop: it resolves each walked chunk of the feed
// through every member. Under MaxBranches the front end stops exactly at
// the record that completes the budget (see walker.fill). A record is
// measured iff at least Warmup conditional branches retired before it,
// and the same boundary gates every member's mispredictions, so
// numerator and denominator cover one window. srcErr is a deferred source
// failure; err an immediate abort. The feed is stopped, and a producer
// joined, before walk returns.
//
// Under commit delay every member keeps its own ring, but all rings hold
// the same branches — the delay and the stream are shared — so the
// resolve window's plan and its outcome bits are staged once per chunk,
// and only the pending snapshots are per member.
func (e *engine) walk(src trace.Source, pipelined bool) (srcErr, err error) {
	opts := &e.opts
	f := e.front.start(src, pipelined)
	defer f.stop()
	s := newBatchScratch(opts.UpdateDelay)
	var batch, inline []*member
	for k := range e.members {
		if m := &e.members[k]; m.bp == nil {
			inline = append(inline, m)
		} else {
			batch = append(batch, m)
		}
	}
	var ring0 *delayRing
	if len(e.members) > 0 {
		ring0 = &e.members[0].ring
	}
	for {
		c := f.next()
		if c.abort != nil {
			return nil, c.abort
		}
		pre, lag := 0, 0
		if ring0 != nil {
			pre, lag = lagWindow(ring0.count, c.want, opts.UpdateDelay)
			for i := 0; i < pre; i++ {
				stageTaken(s.taken, i, ring0.at(i).taken)
			}
		}
		// Stage the outcomes and count the measured instructions.
		recs := c.buf[:c.n]
		m := 0
		warmup, branches, instructions := opts.Warmup, e.branches, e.instructions
		for i := range recs {
			b := &recs[i]
			if branches >= warmup {
				instructions += int64(b.Gap) + 1
			}
			if b.Kind == trace.Cond {
				stageTaken(s.taken, pre+m, b.Taken)
				m++
				branches++
			}
		}
		e.instructions = instructions
		for _, mem := range batch {
			if mem.bbo != nil {
				mem.bbo.ObserveBlockLog(&c.log, c.infos[:m], mem.banks[:m])
			}
		}
		for _, mem := range inline {
			mem.stepChunk(c, s.taken, pre, m)
		}
		if m > 0 {
			start := warmupStart(e.branches, opts.Warmup, m)
			for _, mem := range batch {
				mem.resolve(c, s, pre, lag, m)
			}
			for k := range e.members {
				mem := &e.members[k]
				mem.mispredicts += countMispredicts(mem.finals, s.taken, pre, start, m)
			}
			e.branches += int64(m)
		}
		if e.afterChunk != nil {
			e.afterChunk(recs, &c.log)
		}
		if c.err != nil {
			if c.err != io.EOF {
				srcErr = c.err
			}
			break
		}
	}
	return srcErr, nil
}

// RunEnsemble simulates one cold predictor per factory over a single
// traversal of src. Each branch's front-end state (per-thread tracker,
// fetch-block formation, the mode's history variant) and information
// vector are computed exactly once and handed to every member, and
// members that observe fetch blocks (BlockObserver, the EV8 bank
// sequencer) all see the one shared block stream. Per member it keeps the
// exact semantics of Run — the schedule rule, the fused Lookup/UpdateWith
// path when available, a private commit-delay ring under opts.UpdateDelay,
// and private attribution counters under opts.Collect — so the returned
// Results (factory order) are byte-identical to len(factories)
// independent Run calls over equal sources.
//
// All members share opts; in particular they see the same information
// vector (opts.Mode) — schemes needing different modes belong in
// different ensembles. Under opts.MaxBranches the source stops exactly
// where Run's would. The walk allocates nothing in steady state, per
// member, preserving the repo's hot-path discipline.
//
// Errors: a factory failure aborts before any simulation; a mid-stream
// source failure returns the partial Results with the same error shape as
// Run. An empty factory list returns an empty, non-nil slice without
// touching src.
func RunEnsemble(factories []Factory, src trace.Source, opts Options) ([]Result, error) {
	return runEnsemble(factories, src, opts, false)
}

// runEnsemble is RunEnsemble with the front end walked ahead in a
// producer goroutine when pipelined.
func runEnsemble(factories []Factory, src trace.Source, opts Options, pipelined bool) ([]Result, error) {
	results := make([]Result, len(factories))
	if len(factories) == 0 {
		return results, nil
	}
	ps := make([]predictor.Predictor, len(factories))
	for i, mk := range factories {
		p, err := mk()
		if err != nil {
			return nil, fmt.Errorf("sim: building ensemble member %d: %w", i, err)
		}
		ps[i] = p
		results[i] = Result{Predictor: p.Name(), SizeBits: p.SizeBits()}
	}
	e := newEngine(ps, opts)
	e.collect()
	return results, e.run(src, pipelined, results, nil)
}

// RunEnsembleBenchmark builds the named synthetic benchmark once and runs
// one predictor per factory over its single stream.
func RunEnsembleBenchmark(factories []Factory, prof workload.Profile, instrBudget int64, opts Options) ([]Result, error) {
	return runEnsembleBenchmarkCtx(context.Background(), factories, prof, instrBudget, opts)
}
