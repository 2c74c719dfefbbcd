package hybrid

import (
	"testing"

	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/bimodal"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/predictor/local"
	"ev8pred/internal/predictor/predtest"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

func mk() predictor.Predictor {
	return MustNew(local.MustNew(256, 8), gshare.MustNew(1024, 8), 1024)
}

func TestConformance(t *testing.T) {
	predtest.Conformance(t, mk)
}

func TestValidation(t *testing.T) {
	if _, err := New(nil, bimodal.MustNew(64), 64); err == nil {
		t.Error("nil component accepted")
	}
	if _, err := New(bimodal.MustNew(64), bimodal.MustNew(64), 100); err == nil {
		t.Error("non-power-of-two chooser accepted")
	}
}

func TestSizeBitsIncludesEverything(t *testing.T) {
	a, b := bimodal.MustNew(64), gshare.MustNew(64, 6)
	h := MustNew(a, b, 64)
	want := a.SizeBits() + b.SizeBits() + 2*64
	if got := h.SizeBits(); got != want {
		t.Errorf("SizeBits = %d, want %d", got, want)
	}
}

func TestChooserPicksBetterComponentPerBranch(t *testing.T) {
	// Branch A alternates (global history predicts it; bimodal cannot).
	// The tournament must converge to near-perfect accuracy on A by
	// selecting the gshare side.
	h := MustNew(bimodal.MustNew(1024), gshare.MustNew(4096, 8), 1024)
	var ghist history.Register
	taken := false
	misses := 0
	for i := 0; i < 1000; i++ {
		in := &history.Info{PC: 0x100, Hist: ghist.Value()}
		if i > 300 && h.Predict(in) != taken {
			misses++
		}
		h.Update(in, taken)
		ghist.Shift(taken)
		taken = !taken
	}
	if misses > 10 {
		t.Errorf("tournament missed alternation %d/700 times", misses)
	}
}

func TestChooserUnmovedWhenComponentsAgree(t *testing.T) {
	a, b := bimodal.MustNew(64), bimodal.MustNew(64)
	h := MustNew(a, b, 64)
	in := &history.Info{PC: 0x80}
	before := h.chooser.Get(h.chooseIndex(in.PC))
	// Components are identical, so they always agree; the chooser must
	// never move.
	for i := 0; i < 10; i++ {
		h.Update(in, i%2 == 0)
	}
	if got := h.chooser.Get(h.chooseIndex(in.PC)); got != before {
		t.Errorf("chooser moved %d -> %d with agreeing components", before, got)
	}
}

// TestInnerEV8SeesEveryBlock: the hybrid forwards each fetch block to its
// components, so an EV8 inside it runs its §6.2 bank sequencer over
// exactly the blocks it sequences alone.
func TestInnerEV8SeesEveryBlock(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Mode: frontend.ModeEV8()}
	alone := ev8.MustNew(ev8.DefaultConfig())
	if _, err := sim.RunBenchmark(alone, prof, 200_000, opts); err != nil {
		t.Fatal(err)
	}
	inner := ev8.MustNew(ev8.DefaultConfig())
	if _, err := sim.RunBenchmark(MustNew(gshare.MustNew(1024, 8), inner, 1024), prof, 200_000, opts); err != nil {
		t.Fatal(err)
	}
	if alone.BlocksObserved() == 0 || inner.BlocksObserved() != alone.BlocksObserved() {
		t.Errorf("inner EV8 observed %d blocks, alone %d", inner.BlocksObserved(), alone.BlocksObserved())
	}
	if inner.BankUse() != alone.BankUse() {
		t.Errorf("inner EV8 bank use %v, alone %v", inner.BankUse(), alone.BankUse())
	}
}
