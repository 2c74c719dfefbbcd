package dhlf

import (
	"testing"

	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/bimodal"
	"ev8pred/internal/predictor/predtest"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

func TestConformance(t *testing.T) {
	predtest.Conformance(t, func() predictor.Predictor { return MustNew(4096, 16, 256) })
}

func TestValidation(t *testing.T) {
	if _, err := New(100, 16, 256); err == nil {
		t.Error("non-power-of-two entries accepted")
	}
	if _, err := New(1024, 0, 256); err == nil {
		t.Error("zero max length accepted")
	}
	if _, err := New(1024, 100, 256); err == nil {
		t.Error("oversized max length accepted")
	}
	if _, err := New(1024, 16, 4); err == nil {
		t.Error("tiny epoch accepted")
	}
}

func TestAdaptsTowardUsefulHistory(t *testing.T) {
	// An alternating branch needs history; after profiling, DHLF must
	// commit to a nonzero length and reach high accuracy.
	d := MustNew(4096, 12, 128)
	var ghist history.Register
	taken := false
	misses := 0
	committedLens := map[int]bool{}
	const n = 40000
	for i := 0; i < n; i++ {
		in := &history.Info{PC: 0x100, Hist: ghist.Value()}
		if i > n/2 && d.Predict(in) != taken {
			misses++
		}
		d.Update(in, taken)
		if !d.Profiling() {
			committedLens[d.HistLen()] = true
		}
		ghist.Shift(taken)
		taken = !taken
	}
	if len(committedLens) == 0 {
		t.Fatal("never committed to a length")
	}
	if committedLens[0] && len(committedLens) == 1 {
		t.Error("committed only to length 0 on a history-dependent branch")
	}
	if rate := float64(misses) / float64(n/2); rate > 0.2 {
		t.Errorf("post-adaptation miss rate %.3f", rate)
	}
}

func TestStaysWithinBounds(t *testing.T) {
	d := MustNew(1024, 6, 64)
	var ghist history.Register
	for i := 0; i < 50000; i++ {
		in := &history.Info{PC: uint64(i%37) * 4, Hist: ghist.Value()}
		taken := i%3 == 0
		d.Update(in, taken)
		ghist.Shift(taken)
		if d.HistLen() < 0 || d.HistLen() > 6 {
			t.Fatalf("length %d escaped [0,6]", d.HistLen())
		}
	}
}

func TestBeatsBimodalOnRealWorkload(t *testing.T) {
	prof, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Mode: frontend.ModeGhist()}
	dr, err := sim.RunBenchmark(MustNew(32*1024, 20, 4096), prof, 400_000, opts)
	if err != nil {
		t.Fatal(err)
	}
	br, err := sim.RunBenchmark(bimodal.MustNew(32*1024), prof, 400_000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dr.MispKI() >= br.MispKI() {
		t.Errorf("DHLF %.3f should beat bimodal %.3f on li", dr.MispKI(), br.MispKI())
	}
}
