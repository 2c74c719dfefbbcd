// Batch schedule of the stream engine (ensemble.go): a batch member — a
// predictor.BatchPredictor not under BatchOff — resolves each walked
// chunk in two calls instead of one Lookup/UpdateWith interface
// round-trip per branch: a staged index pass and an in-order resolve
// pass, with mispredictions counted by popcount over packed
// prediction/outcome bitsets. See docs/PERFORMANCE.md, "Batch kernel".
//
// The schedule changes no result, because the contract is byte-identical
// results:
//
//   - Any UpdateDelay. Under commit delay L the per-branch schedule
//     interleaves Lookup(k) with the retirement UpdateWith(k−L) through
//     the ring; the index stage is pure and UpdateWith re-reads counter
//     state anyway, so the resolve pass runs lagged over a window — the
//     pending updates the chunk retires, then the chunk's new branches —
//     and reproduces that interleaving exactly (predictor.BatchPredictor,
//     UpdateBatchLagged). Between chunks the pending updates live in the
//     same ring the per-branch schedule uses, so checkpoint capture,
//     resume and the end-of-run drain are shared.
//   - A predictor that observes fetch blocks (BlockObserver — the EV8
//     §6.2 sequencer advances on every block, between branches) is a
//     batch member only if it also implements
//     predictor.BlockBatchObserver, the batched block contract: replaying
//     the walk's block log (ObserveBlockLog) captures the
//     sequencer-dependent bank per branch at its log mark, the exact
//     per-branch interleaving point, and the index pass runs from the
//     captured values (LookupBankedBatch). The §6.2 sequencer state is a
//     deterministic function of the record stream and disjoint from the
//     counter tables, so observing the whole chunk's blocks before
//     resolving its branches commutes with the counter updates. Block
//     observers without the contract run per branch.
//   - Options.Batch is not a user choice: BatchAuto (the default) makes
//     every eligible member a batch member, precisely because results
//     are identical, and the engine decides eligibility from the
//     predictor's interfaces alone. BatchOff, which runs every member per
//     branch, exists only as the differential suites' reference.
package sim

import (
	"math/bits"

	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
)

// BatchMode selects whether the engine's eligible members resolve through
// the batch kernel. Like the pool's worker count and ensemble mode it
// chooses a schedule, never a result: both modes are byte-identical (the
// batch differential suite pins that), so it is excluded from cache keys.
type BatchMode int

const (
	// BatchAuto (the zero value) makes every eligible member a batch
	// member.
	BatchAuto BatchMode = iota
	// BatchOff runs every member per branch (the fused path when the
	// predictor has one): the reference schedule of the differential
	// suites.
	BatchOff
)

// batchChunk is the number of trace records walked per chunk. 1024
// records keep the per-chunk scratch (records, infos, snapshots,
// bitsets) around 100 KB — resident in L2 next to the predictor's
// prediction arrays — while amortizing the per-chunk overheads to noise.
const batchChunk = 1024

// batchScratch is the resolve window of one run, allocated once so the
// steady state allocates nothing: up to min(UpdateDelay, batchChunk)
// pending entries ahead of a chunk's branches (see lagWindow). The
// chunk's records, infos and block log live in its walked chunk
// (pipeline.go).
type batchScratch struct {
	snaps []predictor.Snapshot
	taken []uint64
}

func newBatchScratch(delay int) *batchScratch {
	win := min(delay, batchChunk) + batchChunk
	return &batchScratch{
		snaps: make([]predictor.Snapshot, win),
		taken: make([]uint64, predictor.BatchWords(win)),
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
// awaiting their update join it — the state the per-branch schedule's ring holds
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

// fillWant is the one fill-sizing rule of the front end (walker.fill),
// inline or in the pipeline's producer: a full chunk, or under a branch
// budget no more records than branches remain (0 once it is spent). A
// record holds at most one conditional branch, so a fill never reads past
// the record that completes the budget, and the stream stops where a
// record-at-a-time loop stopping at the budget-th branch would.
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
