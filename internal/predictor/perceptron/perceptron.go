// Package perceptron implements the perceptron branch predictor of Jiménez
// and Lin [11], which the paper's conclusion (§9) names as the kind of
// back-up predictor future designs should consider for hard-to-predict
// branches: per-PC weight vectors dotted with the global history.
package perceptron

import (
	"fmt"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
)

// WeightBits is the signed weight width; weights saturate at ±(2^(n-1)-1).
const WeightBits = 8

// Perceptron is a table of perceptrons indexed by PC.
type Perceptron struct {
	weights   [][]int8 // [entry][histLen+1]; index 0 is the bias weight
	histLen   int
	threshold int32
	pcBits    int
	name      string
}

// New returns a perceptron predictor with entries weight vectors over
// histLen history bits. The training threshold uses the authors' formula
// θ = ⌊1.93·h + 14⌋.
func New(entries, histLen int) (*Perceptron, error) {
	if entries <= 0 || !bitutil.IsPow2(uint64(entries)) {
		return nil, fmt.Errorf("perceptron: entries %d not a positive power of two", entries)
	}
	if histLen < 1 || histLen > history.MaxLen {
		return nil, fmt.Errorf("perceptron: history length %d out of range [1,%d]", histLen, history.MaxLen)
	}
	p := &Perceptron{
		weights:   make([][]int8, entries),
		histLen:   histLen,
		threshold: int32(1.93*float64(histLen) + 14),
		pcBits:    bitutil.Log2(uint64(entries)),
		name:      fmt.Sprintf("perceptron-%dx%dw", entries, histLen+1),
	}
	for i := range p.weights {
		p.weights[i] = make([]int8, histLen+1)
	}
	return p, nil
}

// MustNew is New but panics on error.
func MustNew(entries, histLen int) *Perceptron {
	p, err := New(entries, histLen)
	if err != nil {
		panic(err)
	}
	return p
}

// output computes the perceptron dot product: bias plus Σ w_i·x_i with
// x_i = +1 for a taken history bit and −1 for not-taken.
func (p *Perceptron) output(info *history.Info) int32 {
	w := p.weights[predictor.PCBits(info.PC, p.pcBits)]
	y := int32(w[0])
	h := info.Hist
	for i := 1; i <= p.histLen; i++ {
		if h&1 == 1 {
			y += int32(w[i])
		} else {
			y -= int32(w[i])
		}
		h >>= 1
	}
	return y
}

// Predict implements predictor.Predictor.
func (p *Perceptron) Predict(info *history.Info) bool {
	return p.output(info) >= 0
}

// Confidence returns the output magnitude — the perceptron's natural
// confidence estimate, used by the cascade hierarchy (package cascade) to
// gate late overrides.
func (p *Perceptron) Confidence(info *history.Info) int32 {
	y := p.output(info)
	if y < 0 {
		return -y
	}
	return y
}

// Update implements predictor.Predictor: train on a misprediction or when
// the output magnitude is below the threshold.
func (p *Perceptron) Update(info *history.Info, taken bool) {
	y := p.output(info)
	pred := y >= 0
	mag := y
	if mag < 0 {
		mag = -mag
	}
	if pred == taken && mag > p.threshold {
		return
	}
	const limit = 1<<(WeightBits-1) - 1
	w := p.weights[predictor.PCBits(info.PC, p.pcBits)]
	step := func(i int, agree bool) {
		if agree {
			if w[i] < limit {
				w[i]++
			}
		} else if w[i] > -limit {
			w[i]--
		}
	}
	step(0, taken)
	h := info.Hist
	for i := 1; i <= p.histLen; i++ {
		step(i, (h&1 == 1) == taken)
		h >>= 1
	}
}

// Name implements predictor.Predictor.
func (p *Perceptron) Name() string { return p.name }

// SizeBits implements predictor.Predictor.
func (p *Perceptron) SizeBits() int {
	return len(p.weights) * (p.histLen + 1) * WeightBits
}

var _ predictor.Predictor = (*Perceptron)(nil)
