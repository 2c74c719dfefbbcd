package ev8pred_test

// Resume-equivalence differential suite: a checkpointed-and-resumed run
// must be bit-identical to a run that never stopped — same Branches,
// Mispredicts, Instructions, and (under Collect) the same attribution
// counters — for every Snapshotter family, every benchmark, update delays
// {0, 1, 8}, Collect on and off, and cut points that land mid-warmup and
// inside the commit-delay window. Both resume paths are exercised per
// case: continuing the live source with the same predictor instance, and
// the full serialization round trip (Checkpoint → bytes → Checkpoint,
// fresh predictor, fresh source repositioned via SkipRecords).

import (
	"bytes"
	"reflect"
	"testing"

	"ev8pred"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

// resumeCase is one Snapshotter predictor family under its natural
// information-vector mode.
type resumeCase struct {
	name string
	mode ev8pred.Mode
	make func() (ev8pred.Predictor, error)
}

// resumeRoster covers the four Snapshotter families: gshare, e-gskew,
// 2Bc-gskew and the EV8 model (the lone BlockObserver — its bank
// sequencer and in-flight snapshot ring ride the checkpoint too).
func resumeRoster() []resumeCase {
	return []resumeCase{
		{"gshare", ev8pred.ModeGhist(), func() (ev8pred.Predictor, error) { return ev8pred.NewGshare(1<<14, 14) }},
		{"egskew", ev8pred.ModeGhist(), func() (ev8pred.Predictor, error) { return ev8pred.NewEGskew(4096, 12, true) }},
		{"2bcgskew", ev8pred.ModeGhist(), func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.Config256K()) }},
		{"ev8", ev8pred.ModeEV8(), func() (ev8pred.Predictor, error) { return ev8pred.NewEV8(), nil }},
	}
}

// sameResult asserts bit-identity: the comparable core of Result via ==,
// the attribution counters by deep equality (the Stats pointer itself is
// expected to differ between runs).
func sameResult(t *testing.T, label string, got, want ev8pred.Result) {
	t.Helper()
	gc, wc := got, want
	gc.Stats, wc.Stats = nil, nil
	if gc != wc {
		t.Errorf("%s: result %+v != straight-through %+v", label, gc, wc)
	}
	switch {
	case (got.Stats == nil) != (want.Stats == nil):
		t.Errorf("%s: stats presence %v != %v", label, got.Stats != nil, want.Stats != nil)
	case got.Stats != nil && !reflect.DeepEqual(got.Stats.Sorted(), want.Stats.Sorted()):
		t.Errorf("%s: stats diverge:\n got %v\nwant %v", label, got.Stats.Sorted(), want.Stats.Sorted())
	}
}

// diffResume checkpoints a run at cut raw branches and resumes it both
// ways, asserting bit-identity with the straight-through Result.
func diffResume(t *testing.T, c resumeCase, prof workload.Profile, instr int64, opts sim.Options, cut int64, straight ev8pred.Result) {
	t.Helper()

	// In-process resume: same predictor instance, same live source.
	p, err := c.make()
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(prof, instr)
	if err != nil {
		t.Fatal(err)
	}
	cutOpts := opts
	cutOpts.MaxBranches = cut
	partial, ck, err := sim.RunCheckpoint(p, g, cutOpts)
	if err != nil {
		t.Fatalf("cut=%d: checkpoint: %v", cut, err)
	}
	if err := partial.Validate(); err != nil {
		t.Fatalf("cut=%d: partial result: %v", cut, err)
	}
	if ck.RawBranches != cut {
		t.Fatalf("cut=%d: checkpoint carries %d raw branches", cut, ck.RawBranches)
	}
	live, err := sim.ResumeFrom(p, g, opts, ck)
	if err != nil {
		t.Fatalf("cut=%d: live resume: %v", cut, err)
	}
	live.Workload = prof.Name
	sameResult(t, "live resume", live, straight)

	// Serialized resume: bytes → fresh Checkpoint, fresh predictor,
	// fresh source repositioned by record count.
	blob, err := ck.MarshalBinary()
	if err != nil {
		t.Fatalf("cut=%d: marshal: %v", cut, err)
	}
	var ck2 sim.Checkpoint
	if err := ck2.UnmarshalBinary(blob); err != nil {
		t.Fatalf("cut=%d: unmarshal: %v", cut, err)
	}
	p2, err := c.make()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := workload.New(prof, instr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SkipRecords(g2, ck2.Records); err != nil {
		t.Fatalf("cut=%d: %v", cut, err)
	}
	cold, err := sim.ResumeFrom(p2, g2, opts, &ck2)
	if err != nil {
		t.Fatalf("cut=%d: serialized resume: %v", cut, err)
	}
	cold.Workload = prof.Name
	sameResult(t, "serialized resume", cold, straight)
}

// TestResumeEquivalence is the headline differential: every Snapshotter
// family × every benchmark × update delay {0, 1, 8} × Collect on/off,
// with cut points mid-warmup (200 < Warmup), barely into the stream while
// the commit-delay ring is still filling (5), and in steady state (1000).
func TestResumeEquivalence(t *testing.T) {
	const (
		instr  = 40_000
		warmup = 500
	)
	cuts := []int64{5, 200, 1000}
	for _, c := range resumeRoster() {
		for _, prof := range ev8pred.Benchmarks() {
			t.Run(c.name+"/"+prof.Name, func(t *testing.T) {
				for _, delay := range []int{0, 1, 8} {
					for _, collect := range []bool{false, true} {
						opts := sim.Options{Mode: c.mode, UpdateDelay: delay, Warmup: warmup, Collect: collect}
						p, err := c.make()
						if err != nil {
							t.Fatal(err)
						}
						straight, err := ev8pred.RunBenchmark(p, prof, instr, opts)
						if err != nil {
							t.Fatal(err)
						}
						if straight.Branches == 0 {
							t.Fatal("degenerate straight-through run (0 measured branches)")
						}
						for _, cut := range cuts {
							diffResume(t, c, prof, instr, opts, cut, straight)
						}
					}
				}
			})
		}
	}
}

// TestResumeExtendsRun pins the MaxBranches semantics: a checkpoint at N
// resumed with a higher budget matches a straight-through run at that
// budget — stopping early is free.
func TestResumeExtendsRun(t *testing.T) {
	prof, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const instr = 40_000
	full := sim.Options{Mode: ev8pred.ModeGhist(), MaxBranches: 4_000, UpdateDelay: 8, Warmup: 300}

	p, err := ev8pred.NewGshare(1<<14, 14)
	if err != nil {
		t.Fatal(err)
	}
	straight, err := ev8pred.RunBenchmark(p, prof, instr, full)
	if err != nil {
		t.Fatal(err)
	}

	p2, err := ev8pred.NewGshare(1<<14, 14)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(prof, instr)
	if err != nil {
		t.Fatal(err)
	}
	half := full
	half.MaxBranches = 2_000
	if _, ck, err := sim.RunCheckpoint(p2, g, half); err != nil {
		t.Fatal(err)
	} else if resumed, err := sim.ResumeFrom(p2, g, full, ck); err != nil {
		t.Fatal(err)
	} else {
		resumed.Workload = prof.Name
		sameResult(t, "extended resume", resumed, straight)
	}
}

// TestResumeValidation pins the typed failure modes: a non-Snapshotter
// predictor, mismatched options, and a predictor-name mismatch must all
// refuse cleanly instead of resuming a different experiment.
func TestResumeValidation(t *testing.T) {
	prof, err := ev8pred.BenchmarkByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(prof, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ev8pred.NewGshare(1<<12, 10)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Mode: ev8pred.ModeGhist(), MaxBranches: 500, UpdateDelay: 4}
	_, ck, err := sim.RunCheckpoint(p, g, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Non-snapshotter: the bimodal family has no state serialization.
	bim, err := ev8pred.NewBimodal(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.RunCheckpoint(bim, g, opts); err == nil {
		t.Error("RunCheckpoint accepted a non-Snapshotter predictor")
	}
	if _, err := sim.ResumeFrom(bim, g, opts, ck); err == nil {
		t.Error("ResumeFrom accepted a non-Snapshotter predictor")
	}

	// Option drift.
	for name, bad := range map[string]sim.Options{
		"mode":    {Mode: ev8pred.ModeLghist(), UpdateDelay: 4},
		"delay":   {Mode: ev8pred.ModeGhist(), UpdateDelay: 2},
		"warmup":  {Mode: ev8pred.ModeGhist(), UpdateDelay: 4, Warmup: 7},
		"lenient": {Mode: ev8pred.ModeGhist(), UpdateDelay: 4, LenientFlow: true},
	} {
		if _, err := sim.ResumeFrom(p, g, bad, ck); err == nil {
			t.Errorf("ResumeFrom accepted drifted %s options", name)
		}
	}

	// Predictor mismatch: same family, different geometry (and name).
	other, err := ev8pred.NewGshare(1<<13, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.ResumeFrom(other, g, opts, ck); err == nil {
		t.Error("ResumeFrom accepted a differently-configured predictor")
	}
}

// TestResumeRefusedTrackerLeavesPredictor: a checkpoint whose tracker
// state is refused fails the resume before the caller's predictor is
// touched — the engine-private trackers restore first — so the predictor
// still snapshots as it did before the attempt.
func TestResumeRefusedTrackerLeavesPredictor(t *testing.T) {
	prof, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(prof, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Mode: ev8pred.ModeEV8(), MaxBranches: 2_000, UpdateDelay: 8}
	_, ck, err := sim.RunCheckpoint(ev8pred.NewEV8(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Trackers) == 0 || len(ck.Pending) == 0 {
		t.Fatalf("checkpoint carries %d trackers and %d pending updates, want both", len(ck.Trackers), len(ck.Pending))
	}
	ck.Trackers[0].State = []byte("junk")

	p := ev8pred.NewEV8()
	before := p.SnapshotState()
	if _, err := sim.ResumeFrom(p, g, opts, ck); err == nil {
		t.Fatal("ResumeFrom accepted a junk tracker state")
	}
	if after := p.SnapshotState(); !bytes.Equal(after, before) {
		t.Error("a refused tracker state overwrote the caller's predictor")
	}
}
