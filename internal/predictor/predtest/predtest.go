// Package predtest provides a conformance suite that every predictor
// implementation in the library must pass: interface hygiene, determinism,
// cold-start convention, and basic learnability. Each
// predictor subpackage invokes Conformance from its own tests.
package predtest

import (
	"testing"

	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/rng"
)

// Factory builds a fresh predictor instance.
type Factory func() predictor.Predictor

// Conformance runs the shared behavioral checks.
func Conformance(t *testing.T, mk Factory) {
	t.Helper()
	t.Run("Hygiene", func(t *testing.T) { hygiene(t, mk()) })
	t.Run("LearnsBias", func(t *testing.T) { learnsBias(t, mk()) })
	t.Run("Deterministic", func(t *testing.T) { deterministic(t, mk, mk) })
}

func info(pc, hist uint64) *history.Info {
	return &history.Info{
		PC:      pc,
		BlockPC: pc &^ 31,
		Hist:    hist,
		Path:    [3]uint64{pc ^ 0x40, pc ^ 0x80, pc ^ 0xc0},
	}
}

func hygiene(t *testing.T, p predictor.Predictor) {
	t.Helper()
	if p.Name() == "" {
		t.Error("empty Name()")
	}
	if p.SizeBits() <= 0 {
		t.Errorf("SizeBits() = %d", p.SizeBits())
	}
	// Cold predictions must not crash anywhere in the index space and
	// must be stable (prediction without update is a pure read).
	r := rng.New(1, 1)
	for i := 0; i < 1000; i++ {
		in := info(uint64(r.Intn(1<<20))*4, r.Uint64())
		a := p.Predict(in)
		b := p.Predict(in)
		if a != b {
			t.Fatal("Predict is not a pure read")
		}
	}
}

func learnsBias(t *testing.T, p predictor.Predictor) {
	t.Helper()
	// A handful of strongly biased branches, interleaved, must all be
	// learned within a few occurrences each.
	type site struct {
		pc    uint64
		taken bool
	}
	sites := []site{
		{0x1000, true}, {0x2040, false}, {0x3080, true}, {0x40c0, false},
	}
	var ghist history.Register
	for round := 0; round < 12; round++ {
		for _, s := range sites {
			in := info(s.pc, ghist.Value())
			p.Update(in, s.taken)
			ghist.Shift(s.taken)
		}
	}
	misses := 0
	for round := 0; round < 12; round++ {
		for _, s := range sites {
			in := info(s.pc, ghist.Value())
			if p.Predict(in) != s.taken {
				misses++
			}
			p.Update(in, s.taken)
			ghist.Shift(s.taken)
		}
	}
	if total := 12 * len(sites); misses > total/10 {
		t.Errorf("%d/%d misses on strongly biased branches after training", misses, 12*len(sites))
	}
}

func deterministic(t *testing.T, mkA, mkB Factory) {
	t.Helper()
	a, b := mkA(), mkB()
	r := rng.New(7, 7)
	var ghist history.Register
	for i := 0; i < 5000; i++ {
		pc := uint64(r.Intn(256)) * 4 * 7
		in := info(pc, ghist.Value())
		taken := r.Bool(0.5)
		if a.Predict(in) != b.Predict(in) {
			t.Fatalf("step %d: instances diverged", i)
		}
		a.Update(in, taken)
		b.Update(in, taken)
		ghist.Shift(taken)
	}
}
