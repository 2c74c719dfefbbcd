// Package hotbench is the shared substrate for hot-path performance
// measurement: a fixed roster of the predictors whose per-branch cost
// matters, and a prerecorded-event replay harness that exercises exactly
// the predictor data path (Lookup/UpdateWith, or Predict/Update) with the
// workload generator and front-end tracker taken out of the loop.
//
// Two consumers share it: the BenchmarkPredictUpdate microbenchmarks and
// the zero-allocation gates (TestHotPathZeroAllocs, TestBatchKernelZeroAllocs).
package hotbench

import (
	"fmt"
	"math/bits"

	"ev8pred/internal/core"
	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/bimodal"
	"ev8pred/internal/predictor/egskew"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/workload"
)

// Event is one prerecorded conditional branch: the information vector the
// front end produced and the architectural outcome.
type Event struct {
	Info  history.Info
	Taken bool
}

// Case names one predictor configuration to measure.
type Case struct {
	// Name keys benchmark output.
	Name string
	// Mode is the information vector the predictor is designed for; the
	// replay events are collected under it.
	Mode frontend.Mode
	// New builds a cold instance.
	New func() (predictor.Predictor, error)
	// Gated marks the configurations covered by the zero-allocation
	// acceptance gate (the paper-relevant hot predictors).
	Gated bool
	// Batch marks the configurations whose predictor implements
	// predictor.BatchPredictor; BenchmarkPredictUpdateBatch measures
	// these on the batch kernels.
	Batch bool
}

// Cases returns the measurement roster: the EV8, the unconstrained
// 2Bc-gskew presets, and the classical baselines for scale.
func Cases() []Case {
	return []Case{
		{Name: "ev8", Mode: frontend.ModeEV8(), Gated: true, Batch: true,
			New: func() (predictor.Predictor, error) { return ev8.New(ev8.DefaultConfig()) }},
		{Name: "2bcg-512K", Mode: frontend.ModeGhist(), Gated: true, Batch: true,
			New: func() (predictor.Predictor, error) { return core.New(core.Config512K()) }},
		{Name: "2bcg-ev8size", Mode: frontend.ModeGhist(), Gated: true, Batch: true,
			New: func() (predictor.Predictor, error) { return core.New(core.ConfigEV8Size()) }},
		{Name: "egskew", Mode: frontend.ModeGhist(), Gated: false, Batch: true,
			New: func() (predictor.Predictor, error) { return egskew.New(8192, 13, true) }},
		{Name: "gshare-2M", Mode: frontend.ModeGhist(), Gated: false, Batch: true,
			New: func() (predictor.Predictor, error) { return gshare.New(1024*1024, 20) }},
		{Name: "bimodal", Mode: frontend.ModeGhist(), Gated: false,
			New: func() (predictor.Predictor, error) { return bimodal.New(256 * 1024) }},
	}
}

// Collect records n conditional-branch events from the named synthetic
// benchmark under mode. The front end runs once, here; replaying the events
// afterwards costs nothing but the predictor itself.
func Collect(mode frontend.Mode, bench string, n int) ([]Event, error) {
	prof, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	src, err := workload.New(prof, 0)
	if err != nil {
		return nil, err
	}
	events := make([]Event, 0, n)
	tr := frontend.NewTracker(mode)
	for len(events) < n {
		b, ok := src.Next()
		if !ok {
			return nil, fmt.Errorf("hotbench: %s ran dry after %d events", bench, len(events))
		}
		info, isCond := tr.Process(b)
		if isCond {
			events = append(events, Event{Info: info, Taken: b.Taken})
		}
	}
	return events, nil
}

// ReplayFused pushes every event through the fused Lookup/UpdateWith pair.
func ReplayFused(fp predictor.FusedPredictor, events []Event) {
	for i := range events {
		s := fp.Lookup(&events[i].Info)
		fp.UpdateWith(s, events[i].Taken)
	}
}

// ReplayUnfused pushes every event through the plain Predict/Update pair.
func ReplayUnfused(p predictor.Predictor, events []Event) {
	for i := range events {
		p.Predict(&events[i].Info)
		p.Update(&events[i].Info, events[i].Taken)
	}
}

// Replay routes through the fused pair when p supports it, mirroring what
// sim.Run does in the hot loop.
func Replay(p predictor.Predictor, events []Event) {
	if fp, ok := p.(predictor.FusedPredictor); ok {
		ReplayFused(fp, events)
		return
	}
	ReplayUnfused(p, events)
}

// BatchRun is an event window pre-staged into the chunked
// structure-of-arrays form the batch kernel consumes: contiguous
// information vectors and outcomes packed 64 per word, chunked to the
// simulator's chunk size, plus the reusable snapshot/finals scratch.
// Building it once and replaying it many times keeps the conversion out
// of the measured loop — the same split sim.Run's batch path gets from
// its front-end walk.
type BatchRun struct {
	infos  []history.Info
	taken  []uint64 // stride words per chunk, chunks concatenated
	snaps  []predictor.Snapshot
	finals []uint64
	chunk  int
	stride int // words per chunk
}

// NewBatchRun stages events into chunks of the given size (<= 0 selects
// the simulator's 1024).
func NewBatchRun(events []Event, chunk int) *BatchRun {
	if chunk <= 0 {
		chunk = 1024
	}
	stride := predictor.BatchWords(chunk)
	nchunks := (len(events) + chunk - 1) / chunk
	r := &BatchRun{
		infos:  make([]history.Info, len(events)),
		taken:  make([]uint64, nchunks*stride),
		snaps:  make([]predictor.Snapshot, chunk),
		finals: make([]uint64, stride),
		chunk:  chunk,
		stride: stride,
	}
	for i := range events {
		r.infos[i] = events[i].Info
		if events[i].Taken {
			c := i / chunk
			lane := uint(i%chunk) & 63
			r.taken[c*stride+(i%chunk)>>6] |= 1 << lane
		}
	}
	return r
}

// Replay pushes the staged events through LookupBatch/UpdateBatch chunk
// by chunk, and returns the total mispredict count (so the work cannot
// be dead-code-eliminated and correctness checks come free).
func (r *BatchRun) Replay(bp predictor.BatchPredictor) int64 {
	var misp int64
	for c := 0; c*r.chunk < len(r.infos); c++ {
		lo := c * r.chunk
		hi := lo + r.chunk
		if hi > len(r.infos) {
			hi = len(r.infos)
		}
		m := hi - lo
		tw := r.taken[c*r.stride : c*r.stride+predictor.BatchWords(m)]
		bp.LookupBatch(r.infos[lo:hi], r.snaps[:m])
		bp.UpdateBatch(r.snaps[:m], tw, r.finals)
		for w := range tw {
			misp += int64(popcount(r.finals[w] ^ tw[w]))
		}
	}
	return misp
}

// Len returns the number of staged events.
func (r *BatchRun) Len() int { return len(r.infos) }

// popcount is math/bits.OnesCount64; aliased to keep the import list flat.
func popcount(x uint64) int { return bits.OnesCount64(x) }
