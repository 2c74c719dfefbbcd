// Package bimode implements the bi-mode predictor of Lee, Chen and Mudge
// [13]: a PC-indexed choice table steers each branch to one of two
// gshare-indexed direction tables (one serving mostly-taken branches, one
// mostly-not-taken), separating the two populations to remove destructive
// aliasing.
//
// Following footnote 1 of the paper, the choice (bimodal) table may be
// smaller than the direction tables: for large predictors a 16K-entry
// choice table is the cost-effective point.
package bimode

import (
	"fmt"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/counter"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
)

// Bimode is a choice table plus two direction tables.
type Bimode struct {
	choice     *counter.Array
	taken      *counter.Array
	notTaken   *counter.Array
	choiceBits int
	dirBits    int
	histLen    int
	name       string
}

// New returns a bi-mode predictor with dirEntries counters in each
// direction table and choiceEntries counters in the choice table.
func New(dirEntries, choiceEntries, histLen int) (*Bimode, error) {
	if dirEntries <= 0 || !bitutil.IsPow2(uint64(dirEntries)) {
		return nil, fmt.Errorf("bimode: direction entries %d not a positive power of two", dirEntries)
	}
	if choiceEntries <= 0 || !bitutil.IsPow2(uint64(choiceEntries)) {
		return nil, fmt.Errorf("bimode: choice entries %d not a positive power of two", choiceEntries)
	}
	if histLen < 0 || histLen > history.MaxLen {
		return nil, fmt.Errorf("bimode: history length %d out of range", histLen)
	}
	return &Bimode{
		choice:     counter.NewArray(choiceEntries, counter.WeakNotTaken),
		taken:      counter.NewArray(dirEntries, counter.WeakTaken),
		notTaken:   counter.NewArray(dirEntries, counter.WeakNotTaken),
		choiceBits: bitutil.Log2(uint64(choiceEntries)),
		dirBits:    bitutil.Log2(uint64(dirEntries)),
		histLen:    histLen,
		name: fmt.Sprintf("bimode-2x%dK+%dK-h%d",
			dirEntries/1024, choiceEntries/1024, histLen),
	}, nil
}

// MustNew is New but panics on error.
func MustNew(dirEntries, choiceEntries, histLen int) *Bimode {
	b, err := New(dirEntries, choiceEntries, histLen)
	if err != nil {
		panic(err)
	}
	return b
}

func (b *Bimode) dirIndex(info *history.Info) uint64 {
	return predictor.GshareIndex(info.PC, info.Hist, b.histLen, b.dirBits)
}

func (b *Bimode) choiceIndex(info *history.Info) uint64 {
	return predictor.PCBits(info.PC, b.choiceBits)
}

// lookup returns (choiceTaken, direction prediction of the selected table).
func (b *Bimode) lookup(info *history.Info) (bool, bool) {
	chooseTaken := b.choice.Taken(b.choiceIndex(info))
	di := b.dirIndex(info)
	if chooseTaken {
		return true, b.taken.Taken(di)
	}
	return false, b.notTaken.Taken(di)
}

// Predict implements predictor.Predictor.
func (b *Bimode) Predict(info *history.Info) bool {
	_, pred := b.lookup(info)
	return pred
}

// Update implements predictor.Predictor with the bi-mode update rule: the
// selected direction table is always updated; the choice table is updated
// toward the outcome except when it disagreed with the outcome but the
// selected direction table still predicted correctly.
func (b *Bimode) Update(info *history.Info, taken bool) {
	chooseTaken, pred := b.lookup(info)
	di := b.dirIndex(info)
	if chooseTaken {
		b.taken.Update(di, taken)
	} else {
		b.notTaken.Update(di, taken)
	}
	if chooseTaken == taken || pred != taken {
		b.choice.Update(b.choiceIndex(info), taken)
	}
}

// Name implements predictor.Predictor.
func (b *Bimode) Name() string { return b.name }

// SizeBits implements predictor.Predictor.
func (b *Bimode) SizeBits() int {
	return 2 * (b.choice.Len() + b.taken.Len() + b.notTaken.Len())
}

var _ predictor.Predictor = (*Bimode)(nil)
