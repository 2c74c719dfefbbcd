// Package dhlf implements dynamic history-length fitting (Juan, Sanjeevan
// and Navarro [12]), the adaptivity mechanism §4.5 of the paper cites when
// arguing that per-application optimal history lengths are a real effect:
// a gshare-style predictor that tunes its own history length at run time.
//
// Adaptation is profile-then-commit: the predictor periodically cycles
// through a ladder of candidate lengths, measuring one epoch of
// misprediction rate at each, then commits to the best candidate for a
// long stretch before re-profiling. (Pure greedy hill climbing gets
// trapped at short lengths: each one-step move re-indexes the whole table,
// so the immediate rate of a longer history is dominated by retraining
// noise — the profiling ladder pays that cost once per candidate and
// compares like with like.)
//
// The paper's 2Bc-gskew response to the same observation is structural
// (two fixed lengths, medium G0 + long G1); DHLF is the adaptive
// alternative, included so the design-space comparison is runnable.
package dhlf

import (
	"fmt"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/counter"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
)

// commitEpochs is how many epochs the predictor runs at the committed
// length between profiling passes.
const commitEpochs = 24

// ladderStep is the spacing of candidate lengths.
const ladderStep = 4

// DHLF is a gshare table with an adaptive history length.
type DHLF struct {
	table *counter.Array
	bits  int

	histLen int
	maxLen  int

	ladder []int

	epoch  int64
	count  int64
	misses int64

	profiling  bool
	candIdx    int
	rates      []float64
	commitLeft int

	name string
}

// New returns a DHLF predictor with entries counters, adapting its
// history length within [0, maxLen], re-evaluating every epoch branches.
func New(entries, maxLen int, epoch int64) (*DHLF, error) {
	if entries <= 0 || !bitutil.IsPow2(uint64(entries)) {
		return nil, fmt.Errorf("dhlf: entries %d not a positive power of two", entries)
	}
	if maxLen < 1 || maxLen > history.MaxLen {
		return nil, fmt.Errorf("dhlf: max history length %d out of range", maxLen)
	}
	if epoch < 16 {
		return nil, fmt.Errorf("dhlf: epoch %d too short", epoch)
	}
	d := &DHLF{
		table:  counter.NewArray(entries, counter.WeakNotTaken),
		bits:   bitutil.Log2(uint64(entries)),
		maxLen: maxLen,
		epoch:  epoch,
		name:   fmt.Sprintf("dhlf-%dK-max%d", entries/1024, maxLen),
	}
	for l := 0; l <= maxLen; l += ladderStep {
		d.ladder = append(d.ladder, l)
	}
	d.rates = make([]float64, len(d.ladder))
	d.startProfiling()
	return d, nil
}

// MustNew is New but panics on error.
func MustNew(entries, maxLen int, epoch int64) *DHLF {
	d, err := New(entries, maxLen, epoch)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *DHLF) startProfiling() {
	d.profiling = true
	d.candIdx = 0
	d.histLen = d.ladder[0]
}

func (d *DHLF) index(info *history.Info) uint64 {
	return predictor.GshareIndex(info.PC, info.Hist, d.histLen, d.bits)
}

// Predict implements predictor.Predictor.
func (d *DHLF) Predict(info *history.Info) bool {
	return d.table.Taken(d.index(info))
}

// Update implements predictor.Predictor and drives the
// profile-then-commit adaptation.
func (d *DHLF) Update(info *history.Info, taken bool) {
	if d.table.Taken(d.index(info)) != taken {
		d.misses++
	}
	d.table.Update(d.index(info), taken)
	d.count++
	if d.count < d.epoch {
		return
	}
	rate := float64(d.misses) / float64(d.count)
	d.count, d.misses = 0, 0

	if d.profiling {
		d.rates[d.candIdx] = rate
		d.candIdx++
		if d.candIdx < len(d.ladder) {
			d.histLen = d.ladder[d.candIdx]
			return
		}
		// Ladder complete: commit to the best candidate.
		best := 0
		for i, r := range d.rates {
			if r < d.rates[best] {
				best = i
			}
		}
		d.histLen = d.ladder[best]
		d.profiling = false
		d.commitLeft = commitEpochs
		return
	}
	d.commitLeft--
	if d.commitLeft <= 0 {
		d.startProfiling()
	}
}

// HistLen returns the current history length.
func (d *DHLF) HistLen() int { return d.histLen }

// Profiling reports whether the predictor is currently sampling the
// candidate ladder (exposed for tests).
func (d *DHLF) Profiling() bool { return d.profiling }

// Name implements predictor.Predictor.
func (d *DHLF) Name() string { return d.name }

// SizeBits implements predictor.Predictor (the adaptation counters are a
// handful of registers; only the table is charged).
func (d *DHLF) SizeBits() int { return 2 * d.table.Len() }

var _ predictor.Predictor = (*DHLF)(nil)
