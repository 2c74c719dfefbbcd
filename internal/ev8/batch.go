// Batch kernel for the full EV8 model (predictor.BlockBatchObserver).
//
// The EV8 index set is not a pure function of the information vector: the
// §6.2 bank sequencer advances on every fetch block, between branches, so
// the chunked path has to split the per-branch work at a different
// boundary than the plain 2Bc-gskew kernel. The split that works is the
// one the hardware itself uses. The ONLY sequencer-dependent input to the
// §7 index functions is the two-bit bank number (indexfunc.go evaluates
// everything else from PC, history and path bits); the bank is computed
// two blocks ahead and carried with the fetch block (§6.2). So the
// simulator walks a chunk into a block log (frontend.Tracker.Walk),
// ObserveBlockLog replays the log through the sequencer and captures each
// branch's bank at the branch's mark — exactly the scalar interleaving
// point, right after the branch's record advanced the front end — and
// LookupBankedBatch then evaluates the remaining, now pure, index
// arithmetic for the whole chunk from the linear tables. The resolve
// stage needs nothing new: UpdateBatch and UpdateBatchLagged delegate to
// the core 2Bc-gskew kernel, whose in-order read → bit-parallel
// majority/meta combine → partial-update train is already exact against
// the live counters (internal/core/batch.go).
package ev8

import (
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
)

// ObserveBlockLog implements predictor.BlockBatchObserver: it sequences
// every block of a walked chunk's log, in order, and captures banks[k],
// the bank Lookup would use for the chunk's k-th branch, when the replay
// reaches the branch's mark.
func (p *Predictor) ObserveBlockLog(log *frontend.BlockLog, infos []history.Info, banks []uint8) {
	p.replay(log.Entries, log.Marks, infos, banks)
}

// StageBank implements predictor.BlockBatchObserver: a pure read of the
// §6.2 sequencer at the current position — the bank Lookup would use for
// a branch in the block at blockPC if called now.
func (p *Predictor) StageBank(blockPC uint64) uint8 {
	return p.seq.bankFor(blockPC)
}

// LookupBankedBatch implements predictor.BlockBatchObserver: the staged
// index pass over the four tables, with the sequencer-dependent bank
// numbers supplied by the caller.
func (p *Predictor) LookupBankedBatch(infos []history.Info, banks []uint8, snaps []predictor.Snapshot) {
	lin := p.lin
	for i := range infos {
		lin.index(&infos[i], banks[i], &snaps[i].Idx)
	}
}

// LookupBatch implements predictor.BatchPredictor for contexts where no
// fetch blocks advance inside the chunk (prerecorded-event replay in
// internal/hotbench and BenchmarkPredictUpdateBatch): with the sequencer
// frozen, reading it live per branch is what the scalar replay's Lookup
// does. sim.Run never routes the EV8 here; block-observing runs go
// through ObserveBlockLog/LookupBankedBatch.
func (p *Predictor) LookupBatch(infos []history.Info, snaps []predictor.Snapshot) {
	lin := p.lin
	for i := range infos {
		lin.index(&infos[i], p.seq.bankFor(infos[i].BlockPC), &snaps[i].Idx)
	}
}

// UpdateBatch implements predictor.BatchPredictor. The EV8's update path
// is the core 2Bc-gskew policy on the carried indices (UpdateWith
// delegates the same way), and the §6 scheduling statistics live entirely
// in the block observation — so the core kernel's in-order resolve is the
// whole job.
func (p *Predictor) UpdateBatch(snaps []predictor.Snapshot, taken, finals []uint64) {
	p.core.UpdateBatch(snaps, taken, finals)
}

// UpdateBatchLagged implements predictor.BatchPredictor: the commit-delay
// resolve is the core kernel's too, since the carried indices already hold
// the bank the sequencer assigned at lookup time.
func (p *Predictor) UpdateBatchLagged(snaps []predictor.Snapshot, pending, lag int, taken, finals []uint64) {
	p.core.UpdateBatchLagged(snaps, pending, lag, taken, finals)
}

var _ predictor.BatchPredictor = (*Predictor)(nil)
var _ predictor.BlockBatchObserver = (*Predictor)(nil)
