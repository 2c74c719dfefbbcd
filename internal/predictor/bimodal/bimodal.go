// Package bimodal implements the classical 2-bit-counter bimodal predictor
// (Smith [21]): one saturating counter per PC-indexed table entry. It is
// both a baseline in its own right and the BIM component of the skewed
// hybrid predictors.
package bimodal

import (
	"fmt"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/counter"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
)

// Bimodal is a PC-indexed 2-bit counter table.
type Bimodal struct {
	table *counter.Array
	bits  int
	name  string
}

// New returns a bimodal predictor with entries counters (a power of two).
func New(entries int) (*Bimodal, error) {
	if entries <= 0 || !bitutil.IsPow2(uint64(entries)) {
		return nil, fmt.Errorf("bimodal: entries %d not a positive power of two", entries)
	}
	return &Bimodal{
		table: counter.NewArray(entries, counter.WeakNotTaken),
		bits:  bitutil.Log2(uint64(entries)),
		name:  fmt.Sprintf("bimodal-%dK", entries/1024),
	}, nil
}

// MustNew is New but panics on error.
func MustNew(entries int) *Bimodal {
	b, err := New(entries)
	if err != nil {
		panic(err)
	}
	return b
}

func (b *Bimodal) index(pc uint64) uint64 { return predictor.PCBits(pc, b.bits) }

// Predict implements predictor.Predictor.
func (b *Bimodal) Predict(info *history.Info) bool {
	return b.table.Taken(b.index(info.PC))
}

// Update implements predictor.Predictor.
func (b *Bimodal) Update(info *history.Info, taken bool) {
	b.table.Update(b.index(info.PC), taken)
}

// Name implements predictor.Predictor.
func (b *Bimodal) Name() string { return b.name }

// SizeBits implements predictor.Predictor.
func (b *Bimodal) SizeBits() int { return 2 * b.table.Len() }

var _ predictor.Predictor = (*Bimodal)(nil)
