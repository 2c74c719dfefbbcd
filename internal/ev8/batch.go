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
// simulator's staged front-end walk captures the bank per branch at
// exactly the scalar interleaving point (StageBank, right after the
// branch's record advances the tracker and the sequencer), and
// LookupBankedBatch then stages the remaining — now pure — index
// arithmetic for the whole chunk. The resolve stage needs nothing new:
// UpdateBatch and UpdateBatchLagged delegate to the core 2Bc-gskew
// kernel, whose in-order read → bit-parallel majority/meta combine →
// partial-update train is already exact against the live counters
// (internal/core/batch.go).
//
// The staged index pass is a hand-flattened transcription of the xor-tree
// tables in indexfunc.go: straight-line shift/xor/popcount arithmetic, no
// slice iteration, no per-tree dispatch. TestStagedIndexMatchesTrees pins
// the equivalence against the generic evaluator for both wordline
// variants across all banks. Two facts make the flattening exact for
// every configuration New can build (the core geometry is always
// ConfigEV8Size): no tree consults a history bit at or above its table's
// history length (the §7.5 principles force history bits into the
// table's own window), so the per-table history masking in the generic
// path is a no-op; and the shared wordline reads only h3..h0, inside
// every table's window, so it is computed once per branch.
package ev8

import (
	"ev8pred/internal/bitutil"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
)

// StageBank implements predictor.BlockBatchObserver: a pure read of the
// §6.2 sequencer at the current position — the bank Lookup would use for
// a branch in the block at blockPC if called now.
func (p *Predictor) StageBank(blockPC uint64) uint8 {
	return p.seq.bankFor(blockPC)
}

// LookupBankedBatch implements predictor.BlockBatchObserver: the staged
// index pass over the four tables, with the sequencer-dependent bank
// numbers supplied by the caller's front-end walk.
func (p *Predictor) LookupBankedBatch(infos []history.Info, banks []uint8, snaps []predictor.Snapshot) {
	addrWL := p.idxOpts.AddressOnlyWordline
	for i := range infos {
		stageIndexQuad(&infos[i], banks[i], addrWL, &snaps[i].Idx)
	}
}

// LookupBatch implements predictor.BatchPredictor for contexts where no
// fetch blocks advance inside the chunk (prerecorded-event replay —
// internal/hotbench, cmd/benchkernel): with the sequencer frozen, reading
// it live per branch is exactly what the scalar replay's Lookup does.
// sim.Run never routes the EV8 here; block-observing runs go through
// StageBank/LookupBankedBatch.
func (p *Predictor) LookupBatch(infos []history.Info, snaps []predictor.Snapshot) {
	addrWL := p.idxOpts.AddressOnlyWordline
	for i := range infos {
		stageIndexQuad(&infos[i], p.seq.bankFor(infos[i].BlockPC), addrWL, &snaps[i].Idx)
	}
}

// UpdateBatch implements predictor.BatchPredictor. The EV8's update path
// is the core 2Bc-gskew policy on the carried indices (UpdateWith
// delegates the same way), and the §6 scheduling statistics live entirely
// in ObserveBlock — so the core kernel's in-order resolve is the whole
// job.
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

// Mask constants for the multi-term unshuffle trees, named a<table><bit>
// for PC masks and h<table><bit> for history masks; single- and two-term
// trees are inlined as shifts below. Each line transcribes the matching
// xorTree in indexfunc.go.
const (
	aG0u4 = 1<<4 | 1<<12                // i4: a4^a12
	hG0u4 = 1<<5 | 1<<8 | 1<<11         // i4: h5^h8^h11
	aG0u3 = 1<<11 | 1<<5                // i3: a11^a5
	hG0u3 = 1<<9 | 1<<10 | 1<<12        // i3: h9^h10^h12
	aG0u2 = 1<<2 | 1<<14 | 1<<10 | 1<<6 // i2: a2^a14^a10^a6
	hG0u2 = 1<<6 | 1<<4 | 1<<7          // i2: h6^h4^h7

	hG1u4 = 1<<9 | 1<<14 | 1<<15 | 1<<16 // i4: h9^h14^h15^h16
	aG1u3 = 1<<4 | 1<<11 | 1<<14 | 1<<6 | 1<<3 | 1<<10 | 1<<13
	hG1u3 = 1<<4 | 1<<6 | 1<<5 | 1<<11 | 1<<13 | 1<<18 | 1<<19 | 1<<20
	aG1u2 = 1<<2 | 1<<5 | 1<<9
	hG1u2 = 1<<4 | 1<<8 | 1<<7 | 1<<10 | 1<<12 | 1<<13 | 1<<14 | 1<<17

	aMu4 = 1<<4 | 1<<10 | 1<<5          // i4: a4^a10^a5
	hMu4 = 1<<7 | 1<<10 | 1<<14 | 1<<13 // i4: h7^h10^h14^h13
	aMu3 = 1<<3 | 1<<12 | 1<<14 | 1<<6  // i3: a3^a12^a14^a6
	hMu3 = 1<<4 | 1<<6 | 1<<8 | 1<<14   // i3: h4^h6^h8^h14
	aMu2 = 1<<2 | 1<<9 | 1<<11 | 1<<13  // i2: a2^a9^a11^a13
	hMu2 = 1<<5 | 1<<9 | 1<<11 | 1<<12  // i2: h5^h9^h11^h12
)

// stageIndexQuad computes the four table indices for one branch as
// straight-line arithmetic — the flattened twin of indexSet.index with
// the bank supplied instead of read from the sequencer. Index layout per
// evalIndex: bank(2) | unshuffle(3)<<2 | wordline(6)<<5 | column<<11.
func stageIndexQuad(info *history.Info, bank uint8, addrWL bool, idx *[predictor.MaxSnapshotBanks]uint64) {
	pc, h, z := info.PC, info.Hist, info.Path[0]
	z5 := z >> 5 & 1
	z6 := z >> 6 & 1
	var wl uint64
	if addrWL {
		wl = pc >> 7 & 0x3F // (a12..a7), Figure 9 "address only"
	} else {
		wl = pc>>7&3 | h&0xF<<2 // (h3,h2,h1,h0,a8,a7), §7.3
	}
	base := uint64(bank&3) | wl<<5

	// BIM: (i13,i12,i11) = (a11, a10^z5, a9^z6); (i4,i3,i2) = (a4, a3^z5, a2^z6).
	col := pc >> 11 & 1 << 2
	col |= (pc>>10 ^ z5) & 1 << 1
	col |= (pc>>9 ^ z6) & 1
	off := pc >> 4 & 1 << 2
	off |= (pc>>3 ^ z5) & 1 << 1
	off |= (pc>>2 ^ z6) & 1
	idx[0] = base | off<<2 | col<<11

	// G0 and Meta share (i15,i14) = (h7^h11, h8^h12) (§7.5).
	s15 := (h>>7 ^ h>>11) & 1
	s14 := (h>>8 ^ h>>12) & 1

	// G0: columns (i13,i12,i11) = (h4^h10, h5^h12, a10^h6).
	col = s15<<4 | s14<<3
	col |= (h>>4 ^ h>>10) & 1 << 2
	col |= (h>>5 ^ h>>12) & 1 << 1
	col |= (pc>>10 ^ h>>6) & 1
	off = (bitutil.ParityMasked(pc, aG0u4) ^ bitutil.ParityMasked(h, hG0u4) ^ z5) << 2
	off |= (bitutil.ParityMasked(pc, aG0u3) ^ bitutil.ParityMasked(h, hG0u3) ^ z6) << 1
	off |= bitutil.ParityMasked(pc, aG0u2) ^ bitutil.ParityMasked(h, hG0u2)
	idx[1] = base | off<<2 | col<<11

	// G1: columns (h19^h12, h18^h11, h17^h10, h16^h4, h15^h20).
	col = (h>>19 ^ h>>12) & 1 << 4
	col |= (h>>18 ^ h>>11) & 1 << 3
	col |= (h>>17 ^ h>>10) & 1 << 2
	col |= (h>>16 ^ h>>4) & 1 << 1
	col |= (h>>15 ^ h>>20) & 1
	off = (bitutil.ParityMasked(h, hG1u4) ^ z6) << 2
	off |= (bitutil.ParityMasked(pc, aG1u3) ^ bitutil.ParityMasked(h, hG1u3) ^ z5) << 1
	off |= bitutil.ParityMasked(pc, aG1u2) ^ bitutil.ParityMasked(h, hG1u2)
	idx[2] = base | off<<2 | col<<11

	// Meta: columns (i13,i12,i11) = (h5^h13, h4^h9, a9^h6).
	col = s15<<4 | s14<<3
	col |= (h>>5 ^ h>>13) & 1 << 2
	col |= (h>>4 ^ h>>9) & 1 << 1
	col |= (pc>>9 ^ h>>6) & 1
	off = (bitutil.ParityMasked(pc, aMu4) ^ bitutil.ParityMasked(h, hMu4) ^ z5) << 2
	off |= (bitutil.ParityMasked(pc, aMu3) ^ bitutil.ParityMasked(h, hMu3)) << 1
	off |= bitutil.ParityMasked(pc, aMu2) ^ bitutil.ParityMasked(h, hMu2) ^ z6
	idx[3] = base | off<<2 | col<<11
}
