// Package egskew implements the enhanced skewed branch predictor e-gskew of
// Michaud, Seznec and Uhlig [15]: three 2-bit counter banks — a bimodal
// bank indexed by address only plus two banks indexed by different skewing
// functions of (address, history) — combined by majority vote, trained with
// the partial update policy.
//
// e-gskew is both a baseline in the paper's §8.2 comparison and the
// majority-vote core inside 2Bc-gskew (package core).
package egskew

import (
	"fmt"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/counter"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/skew"
	"ev8pred/internal/stats"
)

// EGskew is a three-bank majority-vote predictor.
type EGskew struct {
	bim     *counter.Array
	g0      *counter.Array
	g1      *counter.Array
	histLen int
	// lin holds the index functions' byte-sliced tables over the words
	// PC>>2 and history: BIM, G0 and G1 in lanes 0, 1 and 2.
	lin     *skew.Linear
	partial bool
	name    string
	// st holds attribution counters when stats collection is enabled
	// (stats.Instrumented); nil keeps the update path at one pointer
	// check.
	st *egskewStats
}

// egskewStats accumulates component attribution: per-bank vote outcomes
// and the partial-update classification, observed at update time.
type egskewStats struct {
	updates           int64
	mispredicts       int64
	bankWrongOnMisp   [3]int64 // BIM, G0, G1
	bankWrongAbsorbed [3]int64
	correctStrengthen int64
	mispFull          int64
	totalPolicy       int64
	predFlips         [3]int64 // direction flips: destructive-aliasing estimate
}

// New returns an e-gskew predictor with three banks of entries counters
// each, using histLen bits of global history for the two skewed banks.
// partial selects the partial update policy (the configuration the paper
// recommends); total update is kept for ablation.
func New(entries, histLen int, partial bool) (*EGskew, error) {
	if entries <= 0 || !bitutil.IsPow2(uint64(entries)) {
		return nil, fmt.Errorf("egskew: entries %d not a positive power of two", entries)
	}
	if histLen < 0 || histLen > history.MaxLen {
		return nil, fmt.Errorf("egskew: history length %d out of range", histLen)
	}
	bits := bitutil.Log2(uint64(entries))
	fns, err := skew.NewFamily(bits, 2)
	if err != nil {
		return nil, fmt.Errorf("egskew: %w", err)
	}
	// The reference form: PC bits for BIM, and the two skewing functions,
	// by their primitive steps, of PC bits (low) concatenated with
	// history (high) for G0 and G1.
	lin, err := skew.NewLinear(linearKey{bits, histLen}, func(w, i int) (idx [4]uint64) {
		var x [3]uint64 // PC>>2, history, unused
		x[w] = 1 << i
		idx[0] = x[0] & bitutil.Mask(bits)
		v := idx[0] | (x[1]&bitutil.Mask(histLen))<<bits
		idx[1], idx[2] = fns[0].Index(v, bits+histLen), fns[1].Index(v, bits+histLen)
		return idx
	})
	if err != nil {
		return nil, fmt.Errorf("egskew: %w", err)
	}
	return &EGskew{
		bim:     counter.NewArray(entries, counter.WeakNotTaken),
		g0:      counter.NewArray(entries, counter.WeakNotTaken),
		g1:      counter.NewArray(entries, counter.WeakNotTaken),
		histLen: histLen,
		lin:     lin,
		partial: partial,
		name:    fmt.Sprintf("e-gskew-3x%dK-h%d", entries/1024, histLen),
	}, nil
}

type linearKey struct{ bits, histLen int } // the parameters that determine the index map

// MustNew is New but panics on error.
func MustNew(entries, histLen int, partial bool) *EGskew {
	e, err := New(entries, histLen, partial)
	if err != nil {
		panic(err)
	}
	return e
}

// indices computes the three bank indices for an information vector from
// the linear tables. It is the family's one index evaluator; Lookup,
// Predict, Update and LookupBatch all call it.
func (e *EGskew) indices(info *history.Info) (ibim, i0, i1 uint64) {
	var idx [4]uint64
	e.lin.Index(info.PC>>2, info.Hist, 0, &idx)
	return idx[0], idx[1], idx[2]
}

// b2i converts a vote to a count without a slice round-trip.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Lookup implements predictor.FusedPredictor: the three bank indices and
// votes computed once, carried to update time.
func (e *EGskew) Lookup(info *history.Info) predictor.Snapshot {
	ibim, i0, i1 := e.indices(info)
	pbim, p0, p1 := e.bim.Taken(ibim), e.g0.Taken(i0), e.g1.Taken(i1)
	maj := b2i(pbim)+b2i(p0)+b2i(p1) >= 2
	return predictor.Snapshot{
		Idx:   [predictor.MaxSnapshotBanks]uint64{ibim, i0, i1},
		Preds: predictor.PackPreds(pbim, p0, p1),
		Final: maj,
		Aux:   maj,
	}
}

// Predict implements predictor.Predictor: the majority of the three banks.
func (e *EGskew) Predict(info *history.Info) bool {
	ibim, i0, i1 := e.indices(info)
	return b2i(e.bim.Taken(ibim))+b2i(e.g0.Taken(i0))+b2i(e.g1.Taken(i1)) >= 2
}

// Update implements predictor.Predictor with the e-gskew partial update
// policy: on a correct prediction only the banks that voted with the
// outcome are strengthened; on a misprediction all banks are updated.
func (e *EGskew) Update(info *history.Info, taken bool) {
	ibim, i0, i1 := e.indices(info)
	e.updateAt(ibim, i0, i1, taken)
}

// UpdateWith implements predictor.FusedPredictor: the skew hashes are
// reused from lookup time; the votes are re-read at update time so the
// policy sees the same counter state as the unfused path under commit
// delay.
func (e *EGskew) UpdateWith(s predictor.Snapshot, taken bool) {
	e.updateAt(s.Idx[0], s.Idx[1], s.Idx[2], taken)
}

// updateAt applies the update policy at the given bank indices.
func (e *EGskew) updateAt(ibim, i0, i1 uint64, taken bool) {
	pbim, p0, p1 := e.bim.Taken(ibim), e.g0.Taken(i0), e.g1.Taken(i1)
	predicted := b2i(pbim)+b2i(p0)+b2i(p1) >= 2
	if e.st != nil {
		e.updateInstrumented(ibim, i0, i1, pbim, p0, p1, predicted, taken)
		return
	}
	e.applyUpdate(ibim, i0, i1, pbim, p0, p1, predicted, taken)
}

// applyUpdate performs the policy writes — the single write path shared
// by the plain and instrumented updates.
func (e *EGskew) applyUpdate(ibim, i0, i1 uint64, pbim, p0, p1, predicted, taken bool) {
	if !e.partial || predicted != taken {
		// Total update, or misprediction: step every bank.
		e.bim.Update(ibim, taken)
		e.g0.Update(i0, taken)
		e.g1.Update(i1, taken)
		return
	}
	// Correct prediction under partial update: strengthen participants
	// that agreed with the outcome.
	if pbim == taken {
		e.bim.Update(ibim, taken)
	}
	if p0 == taken {
		e.g0.Update(i0, taken)
	}
	if p1 == taken {
		e.g1.Update(i1, taken)
	}
}

// updateInstrumented is the attribution twin of applyUpdate: identical
// writes, wrapped in vote-outcome and update-kind counting plus a
// before/after direction-flip diff.
func (e *EGskew) updateInstrumented(ibim, i0, i1 uint64, pbim, p0, p1, predicted, taken bool) {
	st := e.st
	banks := [3]*counter.Array{e.bim, e.g0, e.g1}
	idx := [3]uint64{ibim, i0, i1}
	var before [3]uint8
	for k := range banks {
		before[k] = banks[k].Get(idx[k])
	}

	st.updates++
	misp := predicted != taken
	if misp {
		st.mispredicts++
	}
	for k, v := range [3]bool{pbim, p0, p1} {
		if v != taken {
			if misp {
				st.bankWrongOnMisp[k]++
			} else {
				st.bankWrongAbsorbed[k]++
			}
		}
	}
	switch {
	case !e.partial:
		st.totalPolicy++
	case misp:
		st.mispFull++
	default:
		st.correctStrengthen++
	}

	e.applyUpdate(ibim, i0, i1, pbim, p0, p1, predicted, taken)

	for k := range banks {
		after := banks[k].Get(idx[k])
		if (before[k] >= counter.WeakTaken) != (after >= counter.WeakTaken) {
			st.predFlips[k]++
		}
	}
}

// EnableStats implements stats.Instrumented; see the package stats
// zero-overhead contract.
func (e *EGskew) EnableStats(on bool) {
	switch {
	case on && e.st == nil:
		e.st = &egskewStats{}
	case !on:
		e.st = nil
	}
}

// egskewBankNames label the three banks in counter names, matching the
// core package's taxonomy so cross-scheme comparisons line up.
var egskewBankNames = [3]string{"BIM", "G0", "G1"}

// Stats implements stats.Instrumented.
func (e *EGskew) Stats() stats.Counters {
	if e.st == nil {
		return nil
	}
	st := e.st
	cs := make(stats.Counters, 0, 16)
	cs.Add("updates", st.updates)
	cs.Add("mispredicts", st.mispredicts)
	for k, n := range egskewBankNames {
		cs.Add("bank_wrong_on_misp_"+n, st.bankWrongOnMisp[k])
	}
	for k, n := range egskewBankNames {
		cs.Add("bank_wrong_absorbed_"+n, st.bankWrongAbsorbed[k])
	}
	cs.Add("update_correct_strengthen", st.correctStrengthen)
	cs.Add("update_misp_full", st.mispFull)
	cs.Add("update_total_policy", st.totalPolicy)
	for k, n := range egskewBankNames {
		cs.Add("pred_flips_"+n, st.predFlips[k])
	}
	return cs
}

// Name implements predictor.Predictor.
func (e *EGskew) Name() string { return e.name }

// SizeBits implements predictor.Predictor.
func (e *EGskew) SizeBits() int {
	return 2 * (e.bim.Len() + e.g0.Len() + e.g1.Len())
}

// LookupBatch implements predictor.BatchPredictor: the pure index stage
// over the chunk, through the scalar path's evaluator (indices). No
// counter state is touched; the unused fourth index is zeroed, as Lookup
// leaves it.
func (e *EGskew) LookupBatch(infos []history.Info, snaps []predictor.Snapshot) {
	for i := range infos {
		ibim, i0, i1 := e.indices(&infos[i])
		snaps[i].Idx = [predictor.MaxSnapshotBanks]uint64{ibim, i0, i1}
	}
}

// UpdateBatch implements predictor.BatchPredictor: the lag-0 resolve.
func (e *EGskew) UpdateBatch(snaps []predictor.Snapshot, taken, finals []uint64) {
	e.UpdateBatchLagged(snaps, 0, 0, taken, finals)
}

// UpdateBatchLagged implements predictor.BatchPredictor: per-branch
// in-order resolve with the three vote bits read as 0/1 words and the
// majority taken bit-parallel. At lag 0 the branch trains from that read
// through the same applyUpdate / updateInstrumented write path as the
// scalar UpdateWith; under a lag the read becomes the branch's snapshot
// and the entry lag places back retires through updateAt, re-reading its
// votes exactly as UpdateWith does.
func (e *EGskew) UpdateBatchLagged(snaps []predictor.Snapshot, pending, lag int, taken, finals []uint64) {
	var fw uint64
	wi := 0
	for k := pending; k < len(snaps); k++ {
		s := &snaps[k]
		pb := e.bim.TakenBit(s.Idx[0])
		p0 := e.g0.TakenBit(s.Idx[1])
		p1 := e.g1.TakenBit(s.Idx[2])
		maj := pb&p0 | pb&p1 | p0&p1
		lane := uint(k-pending) & 63
		fw |= maj << lane
		if lag == 0 {
			tk := taken[k>>6]>>(uint(k)&63)&1 == 1
			if e.st != nil {
				e.updateInstrumented(s.Idx[0], s.Idx[1], s.Idx[2], pb == 1, p0 == 1, p1 == 1, maj == 1, tk)
			} else {
				e.applyUpdate(s.Idx[0], s.Idx[1], s.Idx[2], pb == 1, p0 == 1, p1 == 1, maj == 1, tk)
			}
		} else {
			s.Preds = uint8(pb | p0<<1 | p1<<2)
			s.Final, s.Aux = maj == 1, maj == 1
			if t := k - lag; t >= 0 {
				u := &snaps[t].Idx
				e.updateAt(u[0], u[1], u[2], taken[t>>6]>>(uint(t)&63)&1 == 1)
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

var _ predictor.Predictor = (*EGskew)(nil)
var _ predictor.FusedPredictor = (*EGskew)(nil)
var _ predictor.BatchPredictor = (*EGskew)(nil)
var _ stats.Instrumented = (*EGskew)(nil)
