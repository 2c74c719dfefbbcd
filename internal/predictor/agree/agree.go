// Package agree implements the agree predictor of Sprangle, Chappell,
// Alsup and Patt [22]: a per-branch bias bit (here attached to a bimodal
// base table) plus a global-history-indexed table of 2-bit counters that
// predict whether the branch will AGREE with its bias. Converting the
// direction fight into an agreement vote turns destructive aliasing into
// mostly harmless constructive aliasing.
package agree

import (
	"fmt"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/counter"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
)

// Agree is a bias table plus an agreement counter table.
type Agree struct {
	bias      *counter.BitArray // per-PC-slot bias direction
	biasSet   *counter.BitArray // has the bias been latched yet?
	agreeTbl  *counter.Array
	biasBits  int
	agreeBits int
	histLen   int
	name      string
}

// New returns an agree predictor with biasEntries bias slots and
// agreeEntries agreement counters.
func New(biasEntries, agreeEntries, histLen int) (*Agree, error) {
	if biasEntries <= 0 || !bitutil.IsPow2(uint64(biasEntries)) {
		return nil, fmt.Errorf("agree: bias entries %d not a positive power of two", biasEntries)
	}
	if agreeEntries <= 0 || !bitutil.IsPow2(uint64(agreeEntries)) {
		return nil, fmt.Errorf("agree: agreement entries %d not a positive power of two", agreeEntries)
	}
	if histLen < 0 || histLen > history.MaxLen {
		return nil, fmt.Errorf("agree: history length %d out of range", histLen)
	}
	return &Agree{
		bias:      counter.NewBitArray(biasEntries),
		biasSet:   counter.NewBitArray(biasEntries),
		agreeTbl:  counter.NewArray(agreeEntries, counter.WeakTaken), // weakly agree
		biasBits:  bitutil.Log2(uint64(biasEntries)),
		agreeBits: bitutil.Log2(uint64(agreeEntries)),
		histLen:   histLen,
		name: fmt.Sprintf("agree-%dK+%dK-h%d",
			biasEntries/1024, agreeEntries/1024, histLen),
	}, nil
}

// MustNew is New but panics on error.
func MustNew(biasEntries, agreeEntries, histLen int) *Agree {
	a, err := New(biasEntries, agreeEntries, histLen)
	if err != nil {
		panic(err)
	}
	return a
}

func (a *Agree) biasIndex(pc uint64) uint64 {
	return predictor.PCBits(pc, a.biasBits)
}

func (a *Agree) agreeIndex(info *history.Info) uint64 {
	return predictor.GshareIndex(info.PC, info.Hist, a.histLen, a.agreeBits)
}

// biasDir returns the branch's latched bias (defaults to not-taken before
// first update, matching the library's weakly-not-taken initialization).
func (a *Agree) biasDir(pc uint64) bool {
	return a.bias.Get(a.biasIndex(pc))
}

// Predict implements predictor.Predictor: bias XNOR agreement.
func (a *Agree) Predict(info *history.Info) bool {
	agrees := a.agreeTbl.Taken(a.agreeIndex(info))
	return a.biasDir(info.PC) == agrees
}

// Update implements predictor.Predictor. The bias bit latches the first
// observed outcome of the slot (the paper's "bias set on first encounter"
// policy); the agreement counter then trains toward whether the outcome
// agreed with the bias.
func (a *Agree) Update(info *history.Info, taken bool) {
	bi := a.biasIndex(info.PC)
	if !a.biasSet.Get(bi) {
		a.biasSet.Set(bi, true)
		a.bias.Set(bi, taken)
	}
	agreed := a.bias.Get(bi) == taken
	a.agreeTbl.Update(a.agreeIndex(info), agreed)
}

// Name implements predictor.Predictor.
func (a *Agree) Name() string { return a.name }

// SizeBits implements predictor.Predictor (one bias bit per slot plus the
// agreement counters; the valid bits model the bias being carried by the
// instruction cache and are charged 1 bit each).
func (a *Agree) SizeBits() int {
	return 2*a.bias.Len() + 2*a.agreeTbl.Len()
}

var _ predictor.Predictor = (*Agree)(nil)
