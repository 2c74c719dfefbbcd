// Data-oriented batch kernel for 2Bc-gskew (predictor.BatchPredictor).
//
// The chunked path splits the per-branch work at the only boundary the
// scheme allows. Index computation is a pure function of the
// information vector, so LookupBatch stages it for the whole chunk
// through the same evaluator as the scalar Lookup (linearIndex.indexInto,
// one XOR of byte-sliced table entries for all four banks) — no
// counter state touched, no per-branch interface dispatch. Everything
// downstream of the indices is state-dependent: a hot loop body recurs
// many times inside one 1024-record chunk and aliases with its own
// earlier occurrences, so the read → combine → train resolve must see
// the counters exactly as the scalar Lookup/UpdateWith interleaving
// would. UpdateBatchLagged therefore walks the staged window in order,
// but with the scalar path's per-branch costs stripped: one packed-word
// read per bank, a bit-parallel majority-vote and meta-arbitration
// combine (no if ladders), and the shared applyUpdate write path — which
// most branches never reach a write through, thanks to the §4.2 partial
// update policy (Rationale 1: all-agree-correct means no writes at all).
// Under commit delay the same loop trains each branch lag entries behind
// its lookup, exactly where the scalar ring retires it.
package core

import (
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
)

// LookupBatch implements predictor.BatchPredictor: the pure index stage,
// staged over the whole chunk through the scalar path's index evaluator.
// Only snaps[i].Idx is filled.
func (p *Predictor) LookupBatch(infos []history.Info, snaps []predictor.Snapshot) {
	if p.li == nil {
		// Caller-supplied IndexSet: the index function is opaque, so the
		// stage degrades to per-branch calls — still state-independent,
		// still correct.
		for i := range infos {
			snaps[i].Idx = p.cfg.Indexes(&infos[i])
		}
		return
	}
	for i := range infos {
		p.li.indexInto(&infos[i], &snaps[i].Idx)
	}
}

// UpdateBatch implements predictor.BatchPredictor: the lag-0 resolve.
func (p *Predictor) UpdateBatch(snaps []predictor.Snapshot, taken, finals []uint64) {
	p.UpdateBatchLagged(snaps, 0, 0, taken, finals)
}

// UpdateBatchLagged implements predictor.BatchPredictor: the state-
// dependent resolve, branch by branch in window order against live
// counter state. The four direction bits are read as 0/1 words straight
// from the packed prediction arrays and combined with bit-parallel logic:
//
//	maj   = (bim & g0) | (bim & g1) | (g0 & g1)   // e-gskew majority
//	final = (meta & maj) | (^meta & bim)          // meta arbitration
//
// At lag 0 the branch then trains through the same applyUpdate write path
// as the scalar UpdateWith, from that one read: nothing trains between a
// branch's lookup and its update, so the scalar update-time re-read
// equals the lookup-time read. With attribution on it trains through
// updateAtInstrumented instead, which reads each bank's prediction and
// hysteresis bits together, as the scalar path does. Under a lag the
// read becomes the branch's snapshot, and the entry lag places back
// retires through updateAt, which re-reads its counters exactly as
// UpdateWith does.
func (p *Predictor) UpdateBatchLagged(snaps []predictor.Snapshot, pending, lag int, taken, finals []uint64) {
	bim, g0b, g1b, meta := p.banks[BIM], p.banks[G0], p.banks[G1], p.banks[Meta]
	var fw uint64
	wi := 0
	for k := pending; k < len(snaps); k++ {
		s := &snaps[k]
		pb := bim.PredBit(s.Idx[BIM])
		p0 := g0b.PredBit(s.Idx[G0])
		p1 := g1b.PredBit(s.Idx[G1])
		pm := meta.PredBit(s.Idx[Meta])
		maj := pb&p0 | pb&p1 | p0&p1
		fin := pm&maj | (pm^1)&pb
		lane := uint(k-pending) & 63
		fw |= fin << lane
		if lag == 0 {
			tk := taken[k>>6]>>(uint(k)&63)&1 == 1
			if p.st != nil {
				p.updateAtInstrumented(s.Idx, tk)
			} else {
				p.applyUpdate(s.Idx, pb == 1, p0 == 1, p1 == 1, pm == 1, fin == 1, maj == 1, tk)
			}
		} else {
			s.Preds = uint8(pb | p0<<uint(G0) | p1<<uint(G1) | pm<<uint(Meta))
			s.Final, s.Aux = fin == 1, maj == 1
			if t := k - lag; t >= 0 {
				p.updateAt(snaps[t].Idx, taken[t>>6]>>(uint(t)&63)&1 == 1)
			}
		}
		if lane == 63 {
			finals[wi] = fw
			fw = 0
			wi++
		}
	}
	if (len(snaps)-pending)&63 != 0 {
		finals[wi] = fw
	}
}

var _ predictor.BatchPredictor = (*Predictor)(nil)
