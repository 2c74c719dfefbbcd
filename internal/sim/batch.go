// Batch execution path: when the predictor implements
// predictor.BatchPredictor and the source implements trace.BatchSource,
// the per-branch Lookup/UpdateWith interface round-trips collapse into
// two calls per 1024-record chunk — a staged index pass and an in-order
// resolve pass — with mispredictions counted by popcount over packed
// prediction/outcome bitsets. See docs/PERFORMANCE.md, "Batch kernel".
//
// Eligibility is strict, because the contract is byte-identical results:
//
//   - Any UpdateDelay. Under commit delay L the scalar loop interleaves
//     Lookup(k) with the retirement UpdateWith(k−L) through the ring; the
//     index stage is pure and UpdateWith re-reads counter state anyway,
//     so the resolve pass runs lagged over a window — the pending updates
//     the chunk retires, then the chunk's new branches — and reproduces
//     that interleaving exactly (predictor.BatchPredictor,
//     UpdateBatchLagged). Between chunks the pending updates live in the
//     same ring the scalar loop uses, so checkpoint capture, resume and
//     the end-of-run drain are shared.
//   - A predictor that observes fetch blocks (BlockObserver — the EV8
//     §6.2 sequencer advances on every block, between branches) must
//     also implement predictor.BlockBatchObserver, the batched block
//     contract: the staged front-end walk captures the sequencer-
//     dependent bank per branch (StageBank) at the exact scalar
//     interleaving point, and the index pass runs from the captured
//     values (LookupBankedBatch). Block observers without the contract
//     keep the scalar path.
//   - Options.Batch selects the schedule: BatchAuto (the default)
//     engages the kernel whenever the run is eligible, precisely because
//     results are identical; BatchOff forces the scalar path
//     (differential testing); BatchOn demands the kernel and makes
//     ineligibility a typed error (ErrBatchIneligible) instead of a
//     silent scalar fallback, so benchmarks measure what they claim to.
package sim

import (
	"errors"
	"fmt"
	"io"
	"math/bits"

	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/trace"
)

// BatchMode selects whether sim.Run and RunEnsemble may route eligible
// runs through the batch kernel. Like Workers and Ensemble it chooses a
// schedule, never a result: all modes are byte-identical (the batch
// differential suite pins that), so it is excluded from cache keys.
type BatchMode int

const (
	// BatchAuto (the zero value) uses the batch path whenever the run is
	// eligible.
	BatchAuto BatchMode = iota
	// BatchOff forces the scalar fused path.
	BatchOff
	// BatchOn requires the batch path: an ineligible run fails with
	// ErrBatchIneligible instead of silently falling back to scalar.
	BatchOn
)

// String renders the mode for flags and logs.
func (m BatchMode) String() string {
	switch m {
	case BatchAuto:
		return "auto"
	case BatchOff:
		return "off"
	case BatchOn:
		return "on"
	default:
		return "invalid"
	}
}

// ParseBatchMode parses the CLI spelling of a BatchMode.
func ParseBatchMode(s string) (BatchMode, error) {
	switch s {
	case "auto":
		return BatchAuto, nil
	case "on":
		return BatchOn, nil
	case "off":
		return BatchOff, nil
	default:
		return BatchAuto, fmt.Errorf("sim: unknown batch mode %q (want auto|on|off)", s)
	}
}

// ErrBatchIneligible reports a run that requested BatchOn but cannot take
// the batch kernel; the wrapping error names the disqualifying condition.
var ErrBatchIneligible = errors.New("sim: batch kernel required (BatchOn) but run is ineligible")

// planBatch decides whether a single-predictor run may take the batch
// kernel. It returns (bp, bs) non-nil when eligible; otherwise reason
// names the disqualifying condition (for the BatchOn error).
func planBatch(p predictor.Predictor, src trace.Source, opts Options, blockObserved bool) (predictor.BatchPredictor, trace.BatchSource, string) {
	if opts.Batch == BatchOff {
		return nil, nil, "batch kernel disabled (BatchOff)"
	}
	bp, ok := p.(predictor.BatchPredictor)
	if !ok {
		return nil, nil, fmt.Sprintf("predictor %s does not implement predictor.BatchPredictor", p.Name())
	}
	bs, ok := src.(trace.BatchSource)
	if !ok {
		return nil, nil, "source does not implement trace.BatchSource"
	}
	if blockObserved {
		if _, ok := p.(predictor.BlockBatchObserver); !ok {
			return nil, nil, fmt.Sprintf("predictor %s observes fetch blocks without the batched block contract (predictor.BlockBatchObserver)", p.Name())
		}
	}
	return bp, bs, ""
}

// batchChunk is the number of trace records staged per chunk. 1024
// records keep the per-chunk scratch (records, infos, snapshots,
// bitsets) around 100 KB — resident in L2 next to the predictor's
// prediction arrays — while amortizing the per-chunk overheads to noise.
const batchChunk = 1024

// batchScratch is the chunk-sized working set of one batch run,
// allocated once per run (or once per ensemble) so the steady state
// allocates nothing. snaps and taken span the resolve window: up to
// min(UpdateDelay, batchChunk) pending entries ahead of the chunk's
// branches (see lagWindow).
type batchScratch struct {
	buf    []trace.Branch
	infos  []history.Info
	banks  []uint8
	snaps  []predictor.Snapshot
	taken  []uint64
	finals []uint64
}

func newBatchScratch(delay int) *batchScratch {
	win := min(delay, batchChunk) + batchChunk
	return &batchScratch{
		buf:    make([]trace.Branch, batchChunk),
		infos:  make([]history.Info, batchChunk),
		banks:  make([]uint8, batchChunk),
		snaps:  make([]predictor.Snapshot, win),
		taken:  make([]uint64, predictor.BatchWords(win)),
		finals: make([]uint64, predictor.BatchWords(batchChunk)),
	}
}

// lagWindow plans one chunk's resolve window under update delay delay,
// with pending updates in the ring and at most want new branches coming:
// pre is how many of the oldest pending updates lead the window — all
// the chunk can retire, and no more, so the window never exceeds
// min(delay, batchChunk) + batchChunk entries however long the delay —
// and lag is the distance, in window entries, from a branch to the one
// it retires. At delay 0 both are 0 and the window is the chunk.
func lagWindow(pending, want, delay int) (pre, lag int) {
	pre = min(pending, max(0, pending+want-delay))
	return pre, delay - pending + pre
}

// stageTaken writes outcome bit i of a window, zeroing each word as its
// first lane is written so stale bits never survive.
func stageTaken(words []uint64, i int, taken bool) {
	lane := uint(i) & 63
	if lane == 0 {
		words[i>>6] = 0
	}
	if taken {
		words[i>>6] |= 1 << lane
	}
}

// stagePending copies the snapshots of the pre oldest pending updates to
// the front of the window.
func stagePending(ring *delayRing, snaps []predictor.Snapshot, pre int) {
	for i := 0; i < pre; i++ {
		snaps[i] = ring.at(i).snap
	}
}

// retireWindow brings the ring up to date after the kernel resolved a
// window of pre pending entries and m new branches: the pending updates
// the chunk retired leave the ring, and the chunk's branches still
// awaiting their update join it — the state the scalar loop's ring holds
// after the same branches.
func retireWindow(ring *delayRing, infos []history.Info, snaps []predictor.Snapshot, taken []uint64, pre, m int) {
	if ring.buf == nil {
		return
	}
	pending := ring.count
	retired := max(0, pending+m-len(ring.buf))
	ring.discard(min(retired, pending))
	for j := max(0, retired-pending); j < m; j++ {
		w := pre + j
		ring.push(pendingUpdate{info: infos[j], snap: snaps[w], taken: taken[w>>6]>>(uint(w)&63)&1 == 1})
	}
}

// fillWant is the one fill-sizing rule of every stream loop and of the
// pipeline's producer: a full chunk, or under a branch budget no more
// records than branches remain (0 once it is spent). A record holds at
// most one conditional branch, so a fill never reads past the record that
// completes the budget, and the stream stops where a record-at-a-time
// loop stopping at the budget-th branch would.
func fillWant(maxBranches, branches int64) int {
	if maxBranches <= 0 {
		return batchChunk
	}
	return int(max(0, min(batchChunk, maxBranches-branches)))
}

// countMispredicts popcounts prediction/outcome disagreements over lanes
// [start, m) of a chunk — its measured window after warmup gating.
// finals holds the chunk's predictions from lane 0; taken holds the
// resolve window's outcomes, in which the chunk starts at lane pre. An
// unaligned pre reads one word past the chunk's last, which still lies
// inside taken: pre <= min(delay, batchChunk) sizes the window.
func countMispredicts(finals, taken []uint64, pre, start, m int) int64 {
	var misp int64
	base, sh := pre>>6, uint(pre)&63
	for w := start >> 6; w < (m+63)>>6; w++ {
		t := taken[base+w]
		if sh != 0 {
			t = t>>sh | taken[base+w+1]<<(64-sh)
		}
		d := finals[w] ^ t
		lo := w << 6
		if lo < start {
			d &= ^uint64(0) << uint(start-lo)
		}
		if hi := lo + 64; hi > m {
			d &= ^uint64(0) >> uint(hi-m)
		}
		misp += int64(bits.OnesCount64(d))
	}
	return misp
}

// warmupStart returns the first measured lane of a chunk of m branches
// that starts at global branch index branches.
func warmupStart(branches, warmup int64, m int) int {
	if branches >= warmup {
		return 0
	}
	skip := warmup - branches
	if skip > int64(m) {
		skip = int64(m)
	}
	return int(skip)
}

// runBatchStream is the batch twin of run's scalar loop. The front-end
// walk stays sequential and identical to the scalar loop (per-record
// tracker state machine with the same onBlock wiring, warmup-gated
// instruction accounting); what gets batched is everything per-branch
// downstream of it. Record consumption is also identical: fills are sized
// by fillWant, so the stream position where the run stops — and therefore
// Checkpoint.Records — is the same as scalar's stop-at-the-Nth-branch.
// Under commit delay each chunk resolves behind the pending updates it
// retires (lagWindow), and ring holds the rest between chunks exactly as
// the scalar loop's ring would.
//
// For a block-observing predictor (onBlock non-nil; planBatch has already
// proven the predictor implements the batched block contract), the walk
// additionally captures the sequencer-dependent bank number per
// conditional branch, immediately after the branch's record advances the
// tracker — the exact point the scalar loop would call Lookup. The §6.2
// sequencer state is a deterministic function of the record stream and
// disjoint from the counter tables, so observing the whole chunk's blocks
// before resolving its branches commutes with the counter updates, and
// the captured banks make the staged index pass equal to scalar's
// branch-at-a-time evaluation.
func runBatchStream(bp predictor.BatchPredictor, bs trace.BatchSource, opts Options, res *Result, records *int64, trackers *trackerTable, onBlock func(frontend.Block), ring *delayRing) error {
	s := newBatchScratch(opts.UpdateDelay)
	bbo, _ := bp.(predictor.BlockBatchObserver)
	banked := onBlock != nil && bbo != nil
	for {
		want := fillWant(opts.MaxBranches, res.Branches)
		if want == 0 {
			break
		}
		n, ferr := bs.NextBatch(s.buf[:want])
		pre, lag := lagWindow(ring.count, want, opts.UpdateDelay)
		for i := 0; i < pre; i++ {
			stageTaken(s.taken, i, ring.at(i).taken)
		}
		m := 0
		branches := res.Branches
		for bi := 0; bi < n; bi++ {
			b := &s.buf[bi]
			tr := trackers.lookup(b.Thread)
			if tr == nil {
				var err error
				tr, err = trackers.create(b.Thread, opts, onBlock)
				if err != nil {
					return err
				}
			}
			info, isCond := tr.Process(*b)
			if branches >= opts.Warmup {
				res.Instructions += int64(b.Gap) + 1
			}
			if !isCond {
				continue
			}
			if banked {
				s.banks[m] = bbo.StageBank(info.BlockPC)
			}
			stageTaken(s.taken, pre+m, b.Taken)
			s.infos[m] = info
			m++
			branches++
		}
		*records += int64(n)
		if m > 0 {
			win := s.snaps[:pre+m]
			stagePending(ring, win, pre)
			if banked {
				bbo.LookupBankedBatch(s.infos[:m], s.banks[:m], win[pre:])
			} else {
				bp.LookupBatch(s.infos[:m], win[pre:])
			}
			bp.UpdateBatchLagged(win, pre, lag, s.taken, s.finals)
			retireWindow(ring, s.infos, win, s.taken, pre, m)
			start := warmupStart(res.Branches, opts.Warmup, m)
			res.Mispredicts += countMispredicts(s.finals, s.taken, pre, start, m)
			res.Branches += int64(m)
		}
		if ferr != nil {
			// Clean EOF or sticky failure: stop either way; run's
			// SourceErr check after the loop distinguishes them.
			break
		}
		if n == 0 {
			// The contract says a nil-error short read may be empty, but a
			// source that returns (0, nil) forever must not spin us; treat
			// it as end of stream, like the ensemble loop does.
			break
		}
	}
	return nil
}

// runEnsembleBatchStream is the batch twin of runEnsemble's stream loop,
// used when every block-observing member implements the batched block
// contract. The shared front-end walk stages a chunk of information
// vectors once — firing the fetch-block fan-out exactly as the scalar loop
// would, and capturing each block-observing member's sequencer-dependent
// bank per branch — then each member consumes the whole chunk:
// batch-capable members through their LookupBatch (or LookupBankedBatch) /
// UpdateBatchLagged kernels, everything else through a per-branch loop
// over the staged infos. Beyond dropping the per-branch member fan-out
// overhead, the chunked schedule is a cache-blocking win — a member's
// tables stay hot across its 1024 consecutive branches instead of being
// evicted K-1 times per branch by its peers. Reordering the (branch,
// member) loop nest is safe because member state is private; the shared
// front end is sequenced identically to the scalar loop.
//
// Under commit delay every member keeps its own ring, but all rings hold
// the same branches — the delay and the stream are shared — so the
// window plan and its outcome bits are staged once per chunk, and only
// the pending snapshots are per member.
//
// Returns (srcErr, err) with the same split as the scalar loop: srcErr
// is a deferred mid-stream source failure (reported after results are
// assembled), err an immediate abort (bad thread id).
func runEnsembleBatchStream(members []member, src trace.Source, bs trace.BatchSource, opts Options, trackers *trackerTable, branches, instructions *int64, onBlock func(frontend.Block)) (srcErr, err error) {
	s := newBatchScratch(opts.UpdateDelay)
	bps := make([]predictor.BatchPredictor, len(members))
	bbos := make([]predictor.BlockBatchObserver, len(members))
	banks := make([][]uint8, len(members))
	var staged []int // members whose banks the walk captures
	for k := range members {
		if bp, ok := members[k].p.(predictor.BatchPredictor); ok {
			bps[k] = bp
		}
		// A member needs staged banks only when its sequencer actually
		// advances with the shared block stream; an unobserved
		// BlockBatchObserver (none exist today) would keep a frozen
		// sequencer, which plain LookupBatch reads live — still scalar-
		// identical.
		if bbo, ok := members[k].p.(predictor.BlockBatchObserver); ok && bps[k] != nil {
			if _, isObs := members[k].p.(BlockObserver); isObs {
				bbos[k] = bbo
				banks[k] = make([]uint8, batchChunk)
				staged = append(staged, k)
			}
		}
	}
	ring0 := &members[0].ring // every member's ring holds the same branches
	for {
		want := fillWant(opts.MaxBranches, *branches)
		if want == 0 {
			break
		}
		n, ferr := fillBatch(src, bs, s.buf[:want])
		pre, lag := lagWindow(ring0.count, want, opts.UpdateDelay)
		for i := 0; i < pre; i++ {
			stageTaken(s.taken, i, ring0.at(i).taken)
		}
		m := 0
		bcount := *branches
		for bi := 0; bi < n; bi++ {
			b := &s.buf[bi]
			tr := trackers.lookup(b.Thread)
			if tr == nil {
				tr, err = trackers.create(b.Thread, opts, onBlock)
				if err != nil {
					return nil, err
				}
			}
			info, isCond := tr.Process(*b)
			if bcount >= opts.Warmup {
				*instructions += int64(b.Gap) + 1
			}
			if !isCond {
				continue
			}
			for _, k := range staged {
				banks[k][m] = bbos[k].StageBank(info.BlockPC)
			}
			stageTaken(s.taken, pre+m, b.Taken)
			s.infos[m] = info
			m++
			bcount++
		}
		if m > 0 {
			start := warmupStart(*branches, opts.Warmup, m)
			win := s.snaps[:pre+m]
			for k := range members {
				mem := &members[k]
				if bp := bps[k]; bp != nil {
					stagePending(&mem.ring, win, pre)
					if bbos[k] != nil {
						bbos[k].LookupBankedBatch(s.infos[:m], banks[k][:m], win[pre:])
					} else {
						bp.LookupBatch(s.infos[:m], win[pre:])
					}
					bp.UpdateBatchLagged(win, pre, lag, s.taken, s.finals)
					retireWindow(&mem.ring, s.infos, win, s.taken, pre, m)
					mem.mispredicts += countMispredicts(s.finals, s.taken, pre, start, m)
					continue
				}
				for j := 0; j < m; j++ {
					w := pre + j
					tk := s.taken[w>>6]>>(uint(w)&63)&1 == 1
					pred, snap := mem.predict(&s.infos[j])
					if j >= start && pred != tk {
						mem.mispredicts++
					}
					mem.train(&s.infos[j], snap, tk)
				}
			}
			*branches += int64(m)
		}
		if ferr != nil {
			if ferr != io.EOF {
				srcErr = ferr
			}
			break
		}
		if n == 0 {
			break
		}
	}
	return srcErr, nil
}
