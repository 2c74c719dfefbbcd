package sim

import (
	"errors"
	"strings"
	"testing"

	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/bimodal"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

func TestRunFrontEndOracle(t *testing.T) {
	prof, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunFrontEndBenchmark(nil, prof, 300_000,
		Options{Mode: frontend.ModeEV8()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Predictor != "oracle" {
		t.Errorf("predictor name = %q", r.Predictor)
	}
	if r.Mispredicts != 0 || r.PCGen.CondMispredicts != 0 {
		t.Errorf("oracle mispredicted: %d / %d", r.Mispredicts, r.PCGen.CondMispredicts)
	}
	if r.Blocks == 0 || r.Branches == 0 {
		t.Fatal("no activity recorded")
	}
	if r.RASAccuracy < 0.99 {
		t.Errorf("RAS accuracy %.3f", r.RASAccuracy)
	}
	if r.JumpAccuracy <= 0.4 || r.JumpAccuracy >= 1 {
		t.Errorf("jump accuracy %.3f outside the indirect-dispatch band", r.JumpAccuracy)
	}
	if r.LineAccuracy <= 0.5 {
		t.Errorf("line accuracy %.3f implausibly low", r.LineAccuracy)
	}
	if r.LineMisses == 0 {
		t.Error("line predictor reported zero misses (suspicious)")
	}
}

func TestRunFrontEndRealPredictorConsistency(t *testing.T) {
	// The front-end run's conditional mispredict count must match a
	// plain Run of the same predictor configuration over the same
	// workload and mode.
	prof, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Mode: frontend.ModeEV8()}
	fe, err := RunFrontEndBenchmark(bimodal.MustNew(8192), prof, 200_000, opts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunBenchmark(bimodal.MustNew(8192), prof, 200_000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fe.Mispredicts != plain.Mispredicts || fe.Branches != plain.Branches {
		t.Errorf("front-end run (%d/%d) disagrees with plain run (%d/%d)",
			fe.Mispredicts, fe.Branches, plain.Mispredicts, plain.Branches)
	}
	if fe.PCGen.CondMispredicts != fe.Mispredicts {
		t.Errorf("PCGen cond mispredicts %d != result %d", fe.PCGen.CondMispredicts, fe.Mispredicts)
	}
}

func TestRunFrontEndWiresEV8BlockObserver(t *testing.T) {
	prof, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p := ev8.MustNew(ev8.DefaultConfig())
	r, err := RunFrontEndBenchmark(p, prof, 100_000, Options{Mode: frontend.ModeEV8()})
	if err != nil {
		t.Fatal(err)
	}
	if p.BlocksObserved() != r.Blocks {
		t.Errorf("EV8 observed %d blocks, tracker formed %d", p.BlocksObserved(), r.Blocks)
	}
	if p.BankConflicts() != 0 {
		t.Errorf("%d bank conflicts", p.BankConflicts())
	}
}

// TestRunFrontEndRejectsUnsupportedOptions is the RunFrontEnd column of
// the options contract table (see TestOptionsContract): its Result
// equals Run's under every field but Warmup, which it refuses with
// ErrFrontEndOption naming the field.
func TestRunFrontEndRejectsUnsupportedOptions(t *testing.T) {
	for _, tc := range contractCases {
		t.Run(tc.name, func(t *testing.T) { checkContract(t, frontEndEntry, tc.opts) })
	}
}

// TestRunFrontEndRejectsMultiThread: the PC generator and the line
// predictor hold one thread's state, so a record from a second thread
// fails with ErrFrontEndOption instead of a flow panic, for a real and
// for the oracle predictor.
func TestRunFrontEndRejectsMultiThread(t *testing.T) {
	for _, p := range []predictor.Predictor{bimodal.MustNew(4096), nil} {
		var srcs []trace.Source
		for _, name := range []string{"gcc", "li"} {
			prof, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			srcs = append(srcs, workload.MustNew(prof, 100_000))
		}
		_, err := RunFrontEnd(p, workload.NewInterleaved(srcs, 800), Options{Mode: frontend.ModeEV8()})
		if !errors.Is(err, ErrFrontEndOption) || !strings.Contains(err.Error(), "thread") {
			t.Errorf("predictor %v: got %v, want ErrFrontEndOption naming the thread", p, err)
		}
	}
}
