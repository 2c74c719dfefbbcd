package frontend

import (
	"fmt"

	"ev8pred/internal/bitutil"
)

// LinePredictor models the EV8 line predictor (§2): a small table indexed
// by the address of the most recent fetch block with "very limited hashing
// logic", predicting the address of the next fetch block. Its accuracy is
// deliberately modest — the PC-address generator (the branch predictor
// pipeline) backs it up — and the model exists so the front-end story of
// the paper is executable, not because any figure depends on it.
type LinePredictor struct {
	next    []uint64
	valid   []bool
	bits    int
	lookups int64
	hits    int64
}

// NewLinePredictor returns a line predictor with entries slots.
func NewLinePredictor(entries int) (*LinePredictor, error) {
	if entries <= 0 || !bitutil.IsPow2(uint64(entries)) {
		return nil, fmt.Errorf("frontend: line predictor entries %d not a positive power of two", entries)
	}
	return &LinePredictor{
		next:  make([]uint64, entries),
		valid: make([]bool, entries),
		bits:  bitutil.Log2(uint64(entries)),
	}, nil
}

// MustNewLinePredictor is NewLinePredictor but panics on error.
func MustNewLinePredictor(entries int) *LinePredictor {
	lp, err := NewLinePredictor(entries)
	if err != nil {
		panic(err)
	}
	return lp
}

// index hashes a block address with the "very limited" hash the paper
// describes: low block-address bits only.
func (lp *LinePredictor) index(blockAddr uint64) uint64 {
	return (blockAddr / BlockBytes) & bitutil.Mask(lp.bits)
}

// Predict returns the predicted next-block address and whether the entry
// was valid.
func (lp *LinePredictor) Predict(blockAddr uint64) (uint64, bool) {
	i := lp.index(blockAddr)
	return lp.next[i], lp.valid[i]
}

// Observe trains the predictor with an observed block transition and
// accumulates accuracy statistics.
func (lp *LinePredictor) Observe(b Block) {
	i := lp.index(b.Addr)
	lp.lookups++
	if lp.valid[i] && lp.next[i] == b.Next {
		lp.hits++
	}
	lp.next[i] = b.Next
	lp.valid[i] = true
}

// Accuracy returns the fraction of block transitions predicted correctly.
func (lp *LinePredictor) Accuracy() float64 {
	if lp.lookups == 0 {
		return 0
	}
	return float64(lp.hits) / float64(lp.lookups)
}

// Lookups returns the number of observed transitions.
func (lp *LinePredictor) Lookups() int64 { return lp.lookups }

// Misses returns the number of mispredicted transitions.
func (lp *LinePredictor) Misses() int64 { return lp.lookups - lp.hits }
