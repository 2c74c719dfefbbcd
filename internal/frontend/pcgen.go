package frontend

import (
	"fmt"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/trace"
)

// This file models the rest of the EV8 PC-address generator (§2): besides
// the conditional branch predictor, the front end contains a jump
// predictor (for calls and computed jumps), a return-address-stack
// predictor, and conditional-branch target computation. Together with the
// conditional predictor they back up the fast-but-sloppy line predictor.

// RAS is a return-address-stack predictor: calls push their return
// address, returns pop the predicted target. A fixed-depth circular stack
// models the hardware (deep call chains wrap and mispredict, as on the
// real machine).
type RAS struct {
	stack []uint64
	top   int
	depth int
	used  int

	pops    int64
	correct int64
}

// NewRAS returns a return-address stack with the given depth.
func NewRAS(depth int) (*RAS, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("frontend: RAS depth %d must be positive", depth)
	}
	return &RAS{stack: make([]uint64, depth), depth: depth}, nil
}

// MustNewRAS is NewRAS but panics on error.
func MustNewRAS(depth int) *RAS {
	r, err := NewRAS(depth)
	if err != nil {
		panic(err)
	}
	return r
}

// Push records a call's return address.
func (r *RAS) Push(retAddr uint64) {
	r.top = (r.top + 1) % r.depth
	r.stack[r.top] = retAddr
	if r.used < r.depth {
		r.used++
	}
}

// Pop predicts a return target and records whether it matched actual.
func (r *RAS) Pop(actual uint64) (predicted uint64, hit bool) {
	r.pops++
	if r.used == 0 {
		return 0, false
	}
	predicted = r.stack[r.top]
	r.top = (r.top - 1 + r.depth) % r.depth
	r.used--
	if predicted == actual {
		r.correct++
		return predicted, true
	}
	return predicted, false
}

// Accuracy returns the fraction of returns predicted correctly.
func (r *RAS) Accuracy() float64 {
	if r.pops == 0 {
		return 0
	}
	return float64(r.correct) / float64(r.pops)
}

// JumpPredictor is a direct-mapped, tagged last-target predictor for
// calls and (possibly computed) jumps — the EV8's "jump predictor" (§2).
type JumpPredictor struct {
	targets []uint64
	tags    []uint16
	valid   []bool
	bits    int

	lookups int64
	correct int64
}

// NewJumpPredictor returns a jump predictor with entries slots (a power
// of two).
func NewJumpPredictor(entries int) (*JumpPredictor, error) {
	if entries <= 0 || !bitutil.IsPow2(uint64(entries)) {
		return nil, fmt.Errorf("frontend: jump predictor entries %d not a positive power of two", entries)
	}
	return &JumpPredictor{
		targets: make([]uint64, entries),
		tags:    make([]uint16, entries),
		valid:   make([]bool, entries),
		bits:    bitutil.Log2(uint64(entries)),
	}, nil
}

// MustNewJumpPredictor is NewJumpPredictor but panics on error.
func MustNewJumpPredictor(entries int) *JumpPredictor {
	j, err := NewJumpPredictor(entries)
	if err != nil {
		panic(err)
	}
	return j
}

func (j *JumpPredictor) index(pc uint64) (uint64, uint16) {
	i := (pc >> 2) & bitutil.Mask(j.bits)
	tag := uint16((pc >> uint(2+j.bits)) & 0x3ff)
	return i, tag
}

// PredictAndTrain predicts the target of the jump at pc, trains with the
// actual target, and reports whether the prediction was a valid hit with
// the correct target.
func (j *JumpPredictor) PredictAndTrain(pc, actual uint64) (predicted uint64, hit bool) {
	i, tag := j.index(pc)
	j.lookups++
	if j.valid[i] && j.tags[i] == tag {
		predicted = j.targets[i]
		hit = predicted == actual
	}
	if hit {
		j.correct++
	}
	j.targets[i] = actual
	j.tags[i] = tag
	j.valid[i] = true
	return predicted, hit
}

// Accuracy returns the fraction of jumps whose target was predicted.
func (j *JumpPredictor) Accuracy() float64 {
	if j.lookups == 0 {
		return 0
	}
	return float64(j.correct) / float64(j.lookups)
}

// PCGenStats counts PC-address-generation outcomes per record kind.
type PCGenStats struct {
	CondBranches    int64
	CondMispredicts int64
	Jumps           int64
	JumpMispredicts int64
	Calls           int64
	Returns         int64
	RetMispredicts  int64
}

// Mispredicts returns all PC-generation redirects (pipeline restarts).
func (s PCGenStats) Mispredicts() int64 {
	return s.CondMispredicts + s.JumpMispredicts + s.RetMispredicts
}

// PCGen composes the non-conditional parts of the PC-address generator:
// the jump predictor and the RAS, plus conditional-branch target
// computation (which is exact — targets are decoded from the instruction,
// so a conditional branch redirects only on a direction misprediction).
type PCGen struct {
	jumps *JumpPredictor
	ras   *RAS
	stats PCGenStats
}

// NewPCGen builds a PC-generator model with the given jump-predictor size
// and RAS depth.
func NewPCGen(jumpEntries, rasDepth int) (*PCGen, error) {
	j, err := NewJumpPredictor(jumpEntries)
	if err != nil {
		return nil, err
	}
	r, err := NewRAS(rasDepth)
	if err != nil {
		return nil, err
	}
	return &PCGen{jumps: j, ras: r}, nil
}

// MustNewPCGen is NewPCGen but panics on error.
func MustNewPCGen(jumpEntries, rasDepth int) *PCGen {
	p, err := NewPCGen(jumpEntries, rasDepth)
	if err != nil {
		panic(err)
	}
	return p
}

// Process accounts one record. condPredicted is the conditional
// predictor's direction for Cond records (ignored otherwise). It returns
// true when PC generation redirected the front end (a misprediction).
func (p *PCGen) Process(b trace.Branch, condPredicted bool) bool {
	switch b.Kind {
	case trace.Cond:
		p.stats.CondBranches++
		if condPredicted != b.Taken {
			p.stats.CondMispredicts++
			return true
		}
		return false
	case trace.Call:
		p.stats.Calls++
		p.ras.Push(b.FallThrough())
		_, hit := p.jumps.PredictAndTrain(b.PC, b.Target)
		if !hit {
			p.stats.JumpMispredicts++
			p.stats.Jumps++ // calls count as jump-predictor traffic
			return true
		}
		p.stats.Jumps++
		return false
	case trace.Jump:
		p.stats.Jumps++
		if _, hit := p.jumps.PredictAndTrain(b.PC, b.Target); !hit {
			p.stats.JumpMispredicts++
			return true
		}
		return false
	case trace.Return:
		p.stats.Returns++
		if _, hit := p.ras.Pop(b.Target); !hit {
			p.stats.RetMispredicts++
			return true
		}
		return false
	default:
		panic(fmt.Sprintf("frontend: invalid record kind %d", b.Kind))
	}
}

// Stats returns the accumulated counts.
func (p *PCGen) Stats() PCGenStats { return p.stats }

// RASAccuracy returns the return-address-stack hit rate.
func (p *PCGen) RASAccuracy() float64 { return p.ras.Accuracy() }

// JumpAccuracy returns the jump-predictor hit rate.
func (p *PCGen) JumpAccuracy() float64 { return p.jumps.Accuracy() }
