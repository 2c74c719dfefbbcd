// Package hybrid implements McFarling's combining predictor [14]: two
// arbitrary component predictors plus a chooser table of 2-bit counters
// that learns, per PC slot, which component to trust. The Alpha 21264's
// tournament predictor (§3 of the paper) is an instance: a local component
// combined with a global one.
package hybrid

import (
	"fmt"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/counter"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
)

// blockObserver is a component that observes every fetch block
// (sim.BlockObserver; the EV8's §6.2 bank sequencer).
type blockObserver interface{ ObserveBlock(frontend.Block) }

// Hybrid combines two component predictors with a PC-indexed chooser.
// Chooser semantics: counter >= 2 selects component B.
type Hybrid struct {
	a, b       predictor.Predictor
	chooser    *counter.Array
	chooseBits int
	name       string
	observers  []blockObserver // the components that observe fetch blocks
}

// New returns a hybrid of a and b with chooserEntries chooser counters.
func New(a, b predictor.Predictor, chooserEntries int) (*Hybrid, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("hybrid: nil component")
	}
	if chooserEntries <= 0 || !bitutil.IsPow2(uint64(chooserEntries)) {
		return nil, fmt.Errorf("hybrid: chooser entries %d not a positive power of two", chooserEntries)
	}
	h := &Hybrid{
		a:          a,
		b:          b,
		chooser:    counter.NewArray(chooserEntries, counter.WeakTaken), // slight initial preference for B
		chooseBits: bitutil.Log2(uint64(chooserEntries)),
		name:       fmt.Sprintf("hybrid(%s,%s)", a.Name(), b.Name()),
	}
	for _, p := range []predictor.Predictor{a, b} {
		if o, ok := p.(blockObserver); ok {
			h.observers = append(h.observers, o)
		}
	}
	return h, nil
}

// MustNew is New but panics on error.
func MustNew(a, b predictor.Predictor, chooserEntries int) *Hybrid {
	h, err := New(a, b, chooserEntries)
	if err != nil {
		panic(err)
	}
	return h
}

func (h *Hybrid) chooseIndex(pc uint64) uint64 {
	return predictor.PCBits(pc, h.chooseBits)
}

// Predict implements predictor.Predictor.
func (h *Hybrid) Predict(info *history.Info) bool {
	if h.chooser.Taken(h.chooseIndex(info.PC)) {
		return h.b.Predict(info)
	}
	return h.a.Predict(info)
}

// Update implements predictor.Predictor: both components always train; the
// chooser moves toward the component that was correct when exactly one of
// them was.
func (h *Hybrid) Update(info *history.Info, taken bool) {
	pa := h.a.Predict(info)
	pb := h.b.Predict(info)
	h.a.Update(info, taken)
	h.b.Update(info, taken)
	if pa != pb {
		h.chooser.Update(h.chooseIndex(info.PC), pb == taken)
	}
}

// ObserveBlock forwards each fetch block to every component that
// observes blocks, so an EV8 inside the hybrid runs its bank sequencer
// over the same block stream as it would alone.
func (h *Hybrid) ObserveBlock(b frontend.Block) {
	for _, o := range h.observers {
		o.ObserveBlock(b)
	}
}

// Name implements predictor.Predictor.
func (h *Hybrid) Name() string { return h.name }

// SizeBits implements predictor.Predictor.
func (h *Hybrid) SizeBits() int {
	return h.a.SizeBits() + h.b.SizeBits() + 2*h.chooser.Len()
}

var _ predictor.Predictor = (*Hybrid)(nil)
