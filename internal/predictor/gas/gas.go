// Package gas implements the GAs two-level adaptive global predictor of
// Yeh and Patt [27]: a single global history register selecting a row of
// per-address-set pattern tables. The index is the concatenation of
// history bits (low part) and PC bits (high part) — unlike gshare, history
// and address do not share index bits, so GAs trades capacity for less
// constructive aliasing.
package gas

import (
	"fmt"

	"ev8pred/internal/counter"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
)

// GAs is a concatenated-index two-level global predictor.
type GAs struct {
	table    *counter.Array
	histLen  int
	addrBits int
	name     string
}

// New returns a GAs predictor with 2^(histLen+addrBits) counters.
func New(histLen, addrBits int) (*GAs, error) {
	if histLen < 0 || histLen > history.MaxLen {
		return nil, fmt.Errorf("gas: history length %d out of range", histLen)
	}
	if addrBits < 0 || histLen+addrBits < 1 || histLen+addrBits > 30 {
		return nil, fmt.Errorf("gas: index width %d out of range [1,30]", histLen+addrBits)
	}
	entries := 1 << uint(histLen+addrBits)
	return &GAs{
		table:    counter.NewArray(entries, counter.WeakNotTaken),
		histLen:  histLen,
		addrBits: addrBits,
		name:     fmt.Sprintf("gas-h%d-a%d", histLen, addrBits),
	}, nil
}

// MustNew is New but panics on error.
func MustNew(histLen, addrBits int) *GAs {
	g, err := New(histLen, addrBits)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *GAs) index(info *history.Info) uint64 {
	h := predictor.HistMask(info.Hist, g.histLen)
	a := predictor.PCBits(info.PC, g.addrBits)
	return a<<uint(g.histLen) | h
}

// Predict implements predictor.Predictor.
func (g *GAs) Predict(info *history.Info) bool {
	return g.table.Taken(g.index(info))
}

// Update implements predictor.Predictor.
func (g *GAs) Update(info *history.Info, taken bool) {
	g.table.Update(g.index(info), taken)
}

// Name implements predictor.Predictor.
func (g *GAs) Name() string { return g.name }

// SizeBits implements predictor.Predictor.
func (g *GAs) SizeBits() int { return 2 * g.table.Len() }

var _ predictor.Predictor = (*GAs)(nil)
