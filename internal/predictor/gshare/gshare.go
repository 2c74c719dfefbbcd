// Package gshare implements McFarling's gshare predictor [14]: a single
// 2-bit counter table indexed by the XOR of global history and PC bits.
// Histories longer than the index width are XOR-folded, which is how the
// paper's 1M-entry gshare runs its best-performing 20-bit history.
package gshare

import (
	"fmt"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/counter"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/stats"
)

// Gshare is a global-history XOR-indexed counter table.
type Gshare struct {
	table   *counter.Array
	bits    int
	histLen int
	name    string
	// st holds attribution counters when stats collection is enabled
	// (stats.Instrumented); nil keeps the update path at one pointer
	// check.
	st *gshareStats
}

// gshareStats accumulates single-table attribution: misprediction
// severity by counter strength (a weak-counter miss is the aliasing/
// training signature, a strong-counter miss a genuine behavior change)
// and direction flips as the destructive-aliasing estimate.
type gshareStats struct {
	updates     int64
	mispredicts int64
	mispWeak    int64
	mispStrong  int64
	strengthens int64
	predFlips   int64
}

// New returns a gshare predictor with entries counters (a power of two)
// using histLen bits of global history.
func New(entries, histLen int) (*Gshare, error) {
	if entries <= 0 || !bitutil.IsPow2(uint64(entries)) {
		return nil, fmt.Errorf("gshare: entries %d not a positive power of two", entries)
	}
	if histLen < 0 || histLen > history.MaxLen {
		return nil, fmt.Errorf("gshare: history length %d out of range", histLen)
	}
	return &Gshare{
		table:   counter.NewArray(entries, counter.WeakNotTaken),
		bits:    bitutil.Log2(uint64(entries)),
		histLen: histLen,
		name:    fmt.Sprintf("gshare-%dKx2bit-h%d", entries/1024, histLen),
	}, nil
}

// MustNew is New but panics on error.
func MustNew(entries, histLen int) *Gshare {
	g, err := New(entries, histLen)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Gshare) index(info *history.Info) uint64 {
	return predictor.GshareIndex(info.PC, info.Hist, g.histLen, g.bits)
}

// Predict implements predictor.Predictor.
func (g *Gshare) Predict(info *history.Info) bool {
	return g.table.Taken(g.index(info))
}

// Update implements predictor.Predictor.
func (g *Gshare) Update(info *history.Info, taken bool) {
	g.update(g.index(info), taken)
}

// update is the single write path; attribution hangs off its one nil
// check.
func (g *Gshare) update(idx uint64, taken bool) {
	if g.st != nil {
		g.updateInstrumented(idx, taken)
		return
	}
	g.table.Update(idx, taken)
}

// updateInstrumented wraps the identical table write in attribution
// counting. The counter is located once (counter.Array.UpdateN), which
// also hands back the before state the batch path needs — it is
// returned so UpdateBatch avoids a second table read.
func (g *Gshare) updateInstrumented(idx uint64, taken bool) (before uint8) {
	st := g.st
	before, after := g.table.UpdateN(idx, taken)
	st.updates++
	if (before >= counter.WeakTaken) != taken {
		st.mispredicts++
		if before == counter.WeakNotTaken || before == counter.WeakTaken {
			st.mispWeak++
		} else {
			st.mispStrong++
		}
	} else {
		st.strengthens++
	}
	if (before >= counter.WeakTaken) != (after >= counter.WeakTaken) {
		st.predFlips++
	}
	return before
}

// EnableStats implements stats.Instrumented.
func (g *Gshare) EnableStats(on bool) {
	switch {
	case on && g.st == nil:
		g.st = &gshareStats{}
	case !on:
		g.st = nil
	}
}

// Stats implements stats.Instrumented.
func (g *Gshare) Stats() stats.Counters {
	if g.st == nil {
		return nil
	}
	st := g.st
	cs := make(stats.Counters, 0, 6)
	cs.Add("updates", st.updates)
	cs.Add("mispredicts", st.mispredicts)
	cs.Add("misp_weak_counter", st.mispWeak)
	cs.Add("misp_strong_counter", st.mispStrong)
	cs.Add("update_strengthen", st.strengthens)
	cs.Add("pred_flips", st.predFlips)
	return cs
}

// Lookup implements predictor.FusedPredictor: the folded-history index is
// computed once and carried to update time.
func (g *Gshare) Lookup(info *history.Info) predictor.Snapshot {
	idx := g.index(info)
	taken := g.table.Taken(idx)
	return predictor.Snapshot{
		Idx:   [predictor.MaxSnapshotBanks]uint64{idx},
		Preds: predictor.PackPreds(taken),
		Final: taken,
	}
}

// UpdateWith implements predictor.FusedPredictor.
func (g *Gshare) UpdateWith(s predictor.Snapshot, taken bool) {
	g.update(s.Idx[0], taken)
}

// LookupBatch implements predictor.BatchPredictor: the folded-history
// hashes for the whole chunk, no table reads. The unused banks' indices
// are zeroed, as Lookup leaves them.
func (g *Gshare) LookupBatch(infos []history.Info, snaps []predictor.Snapshot) {
	histLen, bits := g.histLen, g.bits
	for i := range infos {
		snaps[i].Idx = [predictor.MaxSnapshotBanks]uint64{predictor.GshareIndex(infos[i].PC, infos[i].Hist, histLen, bits)}
	}
}

// UpdateBatch implements predictor.BatchPredictor: the lag-0 resolve.
func (g *Gshare) UpdateBatch(snaps []predictor.Snapshot, taken, finals []uint64) {
	g.UpdateBatchLagged(snaps, 0, 0, taken, finals)
}

// UpdateBatchLagged implements predictor.BatchPredictor. Each branch
// resolves in order against live counter state. At lag 0, UpdateN
// locates the counter once and its before state doubles as the
// lookup-time prediction (nothing trains between a branch's lookup and
// its update), whose high bit is packed straight into finals. Under a lag
// the read becomes the branch's snapshot and the entry lag places back
// trains through the scalar update path.
func (g *Gshare) UpdateBatchLagged(snaps []predictor.Snapshot, pending, lag int, taken, finals []uint64) {
	var fw uint64
	wi := 0
	for k := pending; k < len(snaps); k++ {
		s := &snaps[k]
		var fin uint64
		if lag == 0 {
			tk := taken[k>>6]>>(uint(k)&63)&1 == 1
			var before uint8
			if g.st != nil {
				before = g.updateInstrumented(s.Idx[0], tk)
			} else {
				before, _ = g.table.UpdateN(s.Idx[0], tk)
			}
			fin = uint64(before >> 1 & 1)
		} else {
			fin = g.table.TakenBit(s.Idx[0])
			s.Preds, s.Final, s.Aux = uint8(fin), fin == 1, false
			if t := k - lag; t >= 0 {
				g.update(snaps[t].Idx[0], taken[t>>6]>>(uint(t)&63)&1 == 1)
			}
		}
		lane := uint(k-pending) & 63
		fw |= fin << lane
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

// Name implements predictor.Predictor.
func (g *Gshare) Name() string { return g.name }

// SizeBits implements predictor.Predictor.
func (g *Gshare) SizeBits() int { return 2 * g.table.Len() }

// HistLen returns the configured history length.
func (g *Gshare) HistLen() int { return g.histLen }

var _ predictor.Predictor = (*Gshare)(nil)
var _ predictor.FusedPredictor = (*Gshare)(nil)
var _ predictor.BatchPredictor = (*Gshare)(nil)
var _ stats.Instrumented = (*Gshare)(nil)
