package frontend

import (
	"testing"

	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

func TestRASValidation(t *testing.T) {
	if _, err := NewRAS(0); err == nil {
		t.Error("zero depth accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewRAS should panic")
		}
	}()
	MustNewRAS(-1)
}

func TestRASMatchedCallsReturns(t *testing.T) {
	r := MustNewRAS(16)
	// Nested calls return in LIFO order.
	r.Push(0x104)
	r.Push(0x204)
	r.Push(0x304)
	for _, want := range []uint64{0x304, 0x204, 0x104} {
		got, hit := r.Pop(want)
		if !hit || got != want {
			t.Fatalf("Pop = %#x,%v want %#x", got, hit, want)
		}
	}
	if r.Accuracy() != 1.0 {
		t.Errorf("accuracy = %v", r.Accuracy())
	}
}

func TestRASUnderflow(t *testing.T) {
	r := MustNewRAS(4)
	if _, hit := r.Pop(0x100); hit {
		t.Error("empty RAS reported a hit")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := MustNewRAS(2)
	r.Push(0x104)
	r.Push(0x204)
	r.Push(0x304) // overwrites the oldest
	if _, hit := r.Pop(0x304); !hit {
		t.Error("top of wrapped stack should hit")
	}
	if _, hit := r.Pop(0x204); !hit {
		t.Error("second entry should hit")
	}
	// The oldest entry was overwritten: deep chains mispredict.
	if _, hit := r.Pop(0x104); hit {
		t.Error("overwritten entry should miss")
	}
}

func TestJumpPredictorValidation(t *testing.T) {
	if _, err := NewJumpPredictor(100); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

func TestJumpPredictorLastTarget(t *testing.T) {
	j := MustNewJumpPredictor(64)
	// First sight: miss; then hits while the target is stable.
	if _, hit := j.PredictAndTrain(0x100, 0x4000); hit {
		t.Error("cold lookup hit")
	}
	for i := 0; i < 5; i++ {
		if _, hit := j.PredictAndTrain(0x100, 0x4000); !hit {
			t.Error("stable target missed")
		}
	}
	// Target change: one miss, then hits again.
	if _, hit := j.PredictAndTrain(0x100, 0x8000); hit {
		t.Error("changed target hit")
	}
	if _, hit := j.PredictAndTrain(0x100, 0x8000); !hit {
		t.Error("retrained target missed")
	}
}

func TestJumpPredictorTagsPreventFalseHits(t *testing.T) {
	j := MustNewJumpPredictor(16)
	j.PredictAndTrain(0x100, 0x4000)
	j.PredictAndTrain(0x100, 0x4000)
	// A different PC aliasing to the same slot (same low bits) must not
	// hit on the other branch's target.
	aliasPC := uint64(0x100 + 16*4) // same index, different tag
	if _, hit := j.PredictAndTrain(aliasPC, 0x4000); hit {
		t.Error("tag mismatch produced a hit")
	}
}

func TestPCGenOverWorkload(t *testing.T) {
	// Run the PC generator over a real workload with a perfect
	// conditional predictor: remaining redirects come from the jump
	// predictor (indirect switch dispatches) and the RAS.
	prof, err := workload.ByName("perl") // high SwitchFrac
	if err != nil {
		t.Fatal(err)
	}
	g := workload.MustNew(prof, 400_000)
	pg := MustNewPCGen(1024, 32)
	recs, err := trace.Collect(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range recs {
		pg.Process(b, b.Taken) // oracle conditional predictor
	}
	s := pg.Stats()
	if s.CondMispredicts != 0 {
		t.Errorf("oracle conditional predictor mispredicted %d times", s.CondMispredicts)
	}
	if s.Calls == 0 || s.Returns == 0 || s.Jumps == 0 {
		t.Fatalf("workload lacks control-transfer variety: %+v", s)
	}
	// The driver's calls/returns are perfectly stacked: RAS accuracy
	// must be ~1.
	if pg.RASAccuracy() < 0.99 {
		t.Errorf("RAS accuracy %.3f on balanced call/returns", pg.RASAccuracy())
	}
	// Switch dispatches have a hot case plus a tail: the last-target
	// jump predictor must be clearly imperfect but far above chance.
	if acc := pg.JumpAccuracy(); acc < 0.5 || acc > 0.999 {
		t.Errorf("jump accuracy %.3f outside the expected indirect-dispatch band", acc)
	}
	if s.JumpMispredicts == 0 {
		t.Error("no jump mispredicts despite indirect dispatches")
	}
}

func TestPCGenCondRedirects(t *testing.T) {
	pg := MustNewPCGen(64, 8)
	b := trace.Branch{PC: 0x100, Target: 0x200, Taken: true, Kind: trace.Cond}
	if !pg.Process(b, false) {
		t.Error("direction misprediction should redirect")
	}
	if pg.Process(b, true) {
		t.Error("correct direction should not redirect")
	}
	s := pg.Stats()
	if s.CondBranches != 2 || s.CondMispredicts != 1 || s.Mispredicts() != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func BenchmarkPCGen(b *testing.B) {
	prof, _ := workload.ByName("perl")
	g := workload.MustNew(prof, 0)
	pg := MustNewPCGen(1024, 32)
	r := make([]trace.Branch, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NextBatch(r)
		pg.Process(r[0], r[0].Taken)
	}
}
