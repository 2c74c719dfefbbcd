// Package local implements a two-level local-history predictor in the
// style of the Alpha 21264's local component [7]: a PC-indexed table of
// per-branch history registers selecting entries of a shared pattern table.
//
// The paper's §3 explains why the EV8 could NOT use such a predictor (16
// predictions per cycle would need a 16-ported pattern table, and
// speculative local-history repair is intractable with >256 in-flight
// branches); the library includes it so that the global-vs-local argument
// is reproducible rather than asserted.
package local

import (
	"fmt"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/counter"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
)

// Local is a two-level local-history predictor.
type Local struct {
	hists    []uint16
	pattern  *counter.Array
	histBits int
	pcBits   int
	name     string
}

// New returns a local predictor with histEntries per-branch history
// registers of histBits bits each, and a 2^histBits-entry pattern table.
func New(histEntries, histBits int) (*Local, error) {
	if histEntries <= 0 || !bitutil.IsPow2(uint64(histEntries)) {
		return nil, fmt.Errorf("local: history entries %d not a positive power of two", histEntries)
	}
	if histBits < 1 || histBits > 16 {
		return nil, fmt.Errorf("local: history bits %d out of range [1,16]", histBits)
	}
	return &Local{
		hists:    make([]uint16, histEntries),
		pattern:  counter.NewArray(1<<uint(histBits), counter.WeakNotTaken),
		histBits: histBits,
		pcBits:   bitutil.Log2(uint64(histEntries)),
		name:     fmt.Sprintf("local-%dKx%db", histEntries/1024, histBits),
	}, nil
}

// MustNew is New but panics on error.
func MustNew(histEntries, histBits int) *Local {
	l, err := New(histEntries, histBits)
	if err != nil {
		panic(err)
	}
	return l
}

func (l *Local) histIndex(pc uint64) uint64 { return predictor.PCBits(pc, l.pcBits) }

func (l *Local) patternIndex(pc uint64) uint64 {
	h := l.hists[l.histIndex(pc)]
	return uint64(h) & bitutil.Mask(l.histBits)
}

// Predict implements predictor.Predictor. Only info.PC is used: local
// prediction ignores the global information vector entirely.
func (l *Local) Predict(info *history.Info) bool {
	return l.pattern.Taken(l.patternIndex(info.PC))
}

// Update implements predictor.Predictor: trains the pattern entry, then
// shifts the outcome into the branch's local history.
func (l *Local) Update(info *history.Info, taken bool) {
	l.pattern.Update(l.patternIndex(info.PC), taken)
	hi := l.histIndex(info.PC)
	h := l.hists[hi] << 1
	if taken {
		h |= 1
	}
	l.hists[hi] = h & uint16(bitutil.Mask(l.histBits))
}

// Name implements predictor.Predictor.
func (l *Local) Name() string { return l.name }

// SizeBits implements predictor.Predictor.
func (l *Local) SizeBits() int {
	return len(l.hists)*l.histBits + 2*l.pattern.Len()
}

var _ predictor.Predictor = (*Local)(nil)
