package cascade

import (
	"testing"

	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/bimodal"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/predictor/perceptron"
	"ev8pred/internal/predictor/predtest"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

func mk() predictor.Predictor {
	return MustNew(bimodal.MustNew(1024), gshare.MustNew(4096, 10), Config{})
}

func TestConformance(t *testing.T) {
	predtest.Conformance(t, mk)
}

func TestValidation(t *testing.T) {
	if _, err := New(nil, bimodal.MustNew(64), Config{}); err == nil {
		t.Error("nil primary accepted")
	}
	if _, err := New(bimodal.MustNew(64), nil, Config{}); err == nil {
		t.Error("nil backup accepted")
	}
	if _, err := New(bimodal.MustNew(64), bimodal.MustNew(64), Config{OverrideEntries: 100}); err == nil {
		t.Error("non-power-of-two override table accepted")
	}
}

func TestBackupOverridesOnAlternation(t *testing.T) {
	// Primary bimodal cannot learn alternation; the gshare backup can.
	// The cascade must converge to the backup's (correct) predictions,
	// and count the overrides it performed.
	c := MustNew(bimodal.MustNew(1024), gshare.MustNew(4096, 8), Config{})
	var ghist history.Register
	taken := false
	misses := 0
	for i := 0; i < 1200; i++ {
		in := &history.Info{PC: 0x100, Hist: ghist.Value()}
		if i > 400 && c.Predict(in) != taken {
			misses++
		}
		c.Update(in, taken)
		ghist.Shift(taken)
		taken = !taken
	}
	if misses > 20 {
		t.Errorf("cascade missed alternation %d/800 times", misses)
	}
	total, useful := c.Overrides()
	if total == 0 {
		t.Fatal("no overrides recorded")
	}
	if float64(useful)/float64(total) < 0.9 {
		t.Errorf("only %d/%d overrides were useful", useful, total)
	}
}

func TestOverridePermissionLearnsToBlockBadBackups(t *testing.T) {
	// Backup is a deliberately terrible predictor (always disagreeing by
	// construction would be hard; use a cold gshare against a trained
	// bimodal on a biased branch): after warmup the override table must
	// stop the backup from hurting a branch the primary gets right.
	primary := bimodal.MustNew(256)
	backup := gshare.MustNew(256, 8)
	c := MustNew(primary, backup, Config{OverrideEntries: 256})
	in := &history.Info{PC: 0x40}
	// Train: outcome always taken, but feed the backup constantly
	// changing history so it stays cold/noisy.
	misses := 0
	for i := 0; i < 600; i++ {
		in.Hist = uint64(i) * 0x9e3779b97f4a7c15
		if i > 300 && !c.Predict(in) {
			misses++
		}
		c.Update(in, true)
	}
	if misses > 60 {
		t.Errorf("override filter failed to protect the primary: %d misses", misses)
	}
}

func TestPerceptronBackupOnRealWorkload(t *testing.T) {
	// The §9 configuration: EV8-class primary (here the 512Kb core is
	// too slow for a unit test — use gshare as a stand-in primary) with
	// a perceptron backup must not be worse than the primary alone.
	prof, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Mode: frontend.ModeGhist()}
	alone, err := sim.RunBenchmark(gshare.MustNew(32*1024, 15), prof, 300_000, opts)
	if err != nil {
		t.Fatal(err)
	}
	casc := MustNew(gshare.MustNew(32*1024, 15), perceptron.MustNew(1024, 24),
		Config{MinConfidence: 10})
	with, err := sim.RunBenchmark(casc, prof, 300_000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if with.MispKI() > alone.MispKI()*1.02+0.02 {
		t.Errorf("cascade %.3f worse than primary alone %.3f", with.MispKI(), alone.MispKI())
	}
	total, _ := casc.Overrides()
	if total == 0 {
		t.Error("perceptron backup never overrode")
	}
}

// TestInnerEV8SeesEveryBlock: the cascade forwards each fetch block to
// its components, so an EV8 inside it runs its §6.2 bank sequencer over
// exactly the blocks it sequences alone, instead of falling back to
// address bits, under the batch and the per-branch schedule.
func TestInnerEV8SeesEveryBlock(t *testing.T) {
	for _, name := range []string{"gcc", "li"} {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []sim.BatchMode{sim.BatchAuto, sim.BatchOff} {
			opts := sim.Options{Mode: frontend.ModeEV8(), Batch: batch}
			alone := ev8.MustNew(ev8.DefaultConfig())
			if _, err := sim.RunBenchmark(alone, prof, 200_000, opts); err != nil {
				t.Fatal(err)
			}
			inner := ev8.MustNew(ev8.DefaultConfig())
			if _, err := sim.RunBenchmark(MustNew(inner, perceptron.MustNew(256, 12), Config{}), prof, 200_000, opts); err != nil {
				t.Fatal(err)
			}
			if alone.BlocksObserved() == 0 || inner.BlocksObserved() != alone.BlocksObserved() {
				t.Errorf("%s batch=%d: inner EV8 observed %d blocks, alone %d", name, batch, inner.BlocksObserved(), alone.BlocksObserved())
			}
			if inner.BankUse() != alone.BankUse() {
				t.Errorf("%s batch=%d: inner EV8 bank use %v, alone %v", name, batch, inner.BankUse(), alone.BankUse())
			}
		}
	}
}

func TestConfidenceGate(t *testing.T) {
	// With an absurd confidence threshold, a Confident backup can never
	// override.
	c := MustNew(bimodal.MustNew(256), perceptron.MustNew(256, 12),
		Config{MinConfidence: 1 << 30})
	var ghist history.Register
	taken := false
	for i := 0; i < 500; i++ {
		in := &history.Info{PC: 0x80, Hist: ghist.Value()}
		c.Update(in, taken)
		ghist.Shift(taken)
		taken = !taken
	}
	if total, _ := c.Overrides(); total != 0 {
		t.Errorf("confidence gate leaked %d overrides", total)
	}
}

func TestSizeAndReset(t *testing.T) {
	a, b := bimodal.MustNew(256), gshare.MustNew(256, 8)
	c := MustNew(a, b, Config{OverrideEntries: 256})
	want := a.SizeBits() + b.SizeBits() + 512
	if c.SizeBits() != want {
		t.Errorf("SizeBits = %d, want %d", c.SizeBits(), want)
	}
}
