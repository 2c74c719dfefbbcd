package sim

import (
	"context"
	"io"
	"strings"
	"testing"

	"ev8pred/internal/core"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/bimodal"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// constSource yields n copies of a fixed always-taken loop branch whose
// target rewinds over its own gap, keeping the instruction flow consistent.
type constSource struct {
	n     int
	pc    uint64
	taken bool
}

func (c *constSource) NextBatch(dst []trace.Branch) (int, error) {
	if c.n == 0 {
		return 0, io.EOF
	}
	n := min(len(dst), c.n)
	for i := range dst[:n] {
		dst[i] = trace.Branch{PC: c.pc, Target: c.pc - 9*trace.InstrBytes, Taken: c.taken, Gap: 9}
	}
	c.n -= n
	return n, nil
}

// mustRun is the test-side adapter for Run's (Result, error) contract.
func mustRun(t *testing.T, p predictor.Predictor, src trace.Source, opts Options) Result {
	t.Helper()
	r, err := Run(p, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunBiasedBranch(t *testing.T) {
	p := bimodal.MustNew(1024)
	r := mustRun(t, p, &constSource{n: 1000, pc: 0x1000, taken: true}, Options{})
	if r.Branches != 1000 {
		t.Fatalf("branches = %d", r.Branches)
	}
	// Weak-NT start: mispredicts once, then locks on.
	if r.Mispredicts != 1 {
		t.Errorf("mispredicts = %d, want 1", r.Mispredicts)
	}
	if r.Instructions != 10000 {
		t.Errorf("instructions = %d", r.Instructions)
	}
	wantKI := 1000 * 1.0 / 10000
	if got := r.MispKI(); got != float64(wantKI) {
		t.Errorf("MispKI = %v", got)
	}
	if acc := r.Accuracy(); acc < 0.998 {
		t.Errorf("accuracy = %v", acc)
	}
}

func TestRunMaxBranches(t *testing.T) {
	p := bimodal.MustNew(64)
	r := mustRun(t, p, &constSource{n: 1000, pc: 0x1000, taken: true}, Options{MaxBranches: 100})
	if r.Branches != 100 {
		t.Errorf("branches = %d, want 100", r.Branches)
	}
}

func TestRunWarmupExcluded(t *testing.T) {
	p := bimodal.MustNew(64)
	r := mustRun(t, p, &constSource{n: 1000, pc: 0x2000, taken: true}, Options{Warmup: 10})
	if r.Branches != 990 {
		t.Errorf("measured branches = %d, want 990", r.Branches)
	}
	if r.Mispredicts != 0 {
		t.Errorf("mispredicts after warmup = %d, want 0", r.Mispredicts)
	}
}

// recStep describes one record of a hand-built stream.
type recStep struct {
	kind  trace.Kind
	gap   int
	taken bool
}

// mkRecords builds a flow-consistent record list (PC == previous record's
// NextPC + Gap*InstrBytes, the front-end invariant) from steps.
func mkRecords(steps []recStep) []trace.Branch {
	next := uint64(0x4000)
	out := make([]trace.Branch, 0, len(steps))
	for _, s := range steps {
		pc := next + uint64(s.gap)*trace.InstrBytes
		b := trace.Branch{PC: pc, Gap: s.gap, Kind: s.kind, Taken: s.taken}
		b.Target = pc + 40*trace.InstrBytes
		next = b.NextPC()
		out = append(out, b)
	}
	return out
}

// TestWarmupWindowSemantics pins the warmup contract on a mixed stream of
// conditional and non-conditional records: the measured window opens when
// the Warmup-th conditional branch retires, and a record's instructions
// (Gap + the record itself) are measured exactly when the record lies
// after that boundary — for conditional AND non-conditional records, so
// misp/KI numerator and denominator cover the same window.
func TestWarmupWindowSemantics(t *testing.T) {
	steps := []recStep{
		{trace.Cond, 4, true}, // branch #1: warmup, 5 instructions excluded
		{trace.Jump, 2, true}, // before branch #2 retires: 3 excluded
		{trace.Cond, 9, true}, // branch #2: warmup, 10 excluded
		{trace.Jump, 6, true}, // after the boundary: 7 measured
		{trace.Cond, 0, true}, // branch #3: measured, 1 instruction
	}
	p := &probePredictor{} // always predicts not-taken
	r := mustRun(t, p, trace.NewSlice(mkRecords(steps)), Options{Warmup: 2})
	if r.Branches != 1 {
		t.Errorf("measured branches = %d, want 1", r.Branches)
	}
	if r.Instructions != 8 {
		t.Errorf("measured instructions = %d, want 8 (the jump record after the boundary plus branch #3)", r.Instructions)
	}
	if r.Mispredicts != 1 {
		t.Errorf("mispredicts = %d, want 1 (only branch #3 is measured)", r.Mispredicts)
	}

	// Without warmup the same stream counts everything.
	r = mustRun(t, &probePredictor{}, trace.NewSlice(mkRecords(steps)), Options{})
	if r.Branches != 3 || r.Instructions != 26 || r.Mispredicts != 3 {
		t.Errorf("no-warmup run = %d branches, %d instructions, %d mispredicts; want 3, 26, 3",
			r.Branches, r.Instructions, r.Mispredicts)
	}
}

// TestWarmupBoundaryShortStreams is the regression for the off-by-one at
// the warmup boundary: a stream ending at or before the boundary has ZERO
// measured branches, but the old `> Warmup` guard skipped the final
// adjustment and reported the raw warmup count.
func TestWarmupBoundaryShortStreams(t *testing.T) {
	cases := []struct {
		name   string
		conds  int
		warmup int64
		want   int64
	}{
		{"stream ends exactly at the boundary", 2, 2, 0},
		{"stream shorter than warmup", 3, 5, 0},
		{"one measured branch past the boundary", 3, 2, 1},
		{"warmup zero", 3, 0, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			steps := make([]recStep, c.conds)
			for i := range steps {
				steps[i] = recStep{trace.Cond, 3, true}
			}
			r := mustRun(t, &probePredictor{}, trace.NewSlice(mkRecords(steps)), Options{Warmup: c.warmup})
			if r.Branches != c.want {
				t.Errorf("measured branches = %d, want %d", r.Branches, c.want)
			}
			if c.want == 0 && (r.Instructions != 0 || r.Mispredicts != 0) {
				t.Errorf("empty window should report zero stats, got %d instructions, %d mispredicts",
					r.Instructions, r.Mispredicts)
			}
		})
	}
}

func TestEmptyResultMetrics(t *testing.T) {
	var r Result
	if r.MispKI() != 0 || r.Accuracy() != 0 {
		t.Error("zero result should report zero metrics")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Predictor: "p", Workload: "w", Branches: 10, Mispredicts: 1, Instructions: 100}
	if !strings.Contains(r.String(), "p on w") {
		t.Errorf("String = %q", r.String())
	}
}

func TestImmediateVsDelayedUpdateClose(t *testing.T) {
	// The paper validated that immediate-update trace simulation matches
	// commit-time update for these predictors (§8.1.1). Check the two
	// modes agree within a small relative error on a real workload.
	prof, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	mk := func() predictor.Predictor { return gshare.MustNew(1<<14, 12) }
	imm, err := RunBenchmark(mk(), prof, 400_000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	del, err := RunBenchmark(mk(), prof, 400_000, Options{UpdateDelay: 48})
	if err != nil {
		t.Fatal(err)
	}
	if imm.Branches != del.Branches {
		t.Fatalf("branch counts differ: %d vs %d", imm.Branches, del.Branches)
	}
	a, b := imm.MispKI(), del.MispKI()
	rel := (b - a) / a
	if rel < -0.15 || rel > 0.15 {
		t.Errorf("immediate %.3f vs delayed %.3f misp/KI: relative gap %.2f", a, b, rel)
	}
}

func TestRunSuiteShapes(t *testing.T) {
	profs := []workload.Profile{}
	for _, n := range []string{"go", "m88ksim"} {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		profs = append(profs, p)
	}
	rs, err := RunCells(context.Background(), SuiteCells(func() (predictor.Predictor, error) {
		return gshare.New(1<<15, 14)
	}, profs, Options{}), 300_000, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("%d results", len(rs))
	}
	if rs[0].Workload != "go" || rs[1].Workload != "m88ksim" {
		t.Fatalf("workload order: %s %s", rs[0].Workload, rs[1].Workload)
	}
	// The defining difficulty ordering: go is much harder than m88ksim.
	if rs[0].MispKI() <= rs[1].MispKI() {
		t.Errorf("go (%.2f) should mispredict more than m88ksim (%.2f)",
			rs[0].MispKI(), rs[1].MispKI())
	}
	if Mean(rs) <= 0 {
		t.Error("mean misp/KI should be positive")
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestSMTPerThreadHistories(t *testing.T) {
	// Two copies of the same benchmark interleaved: per-thread trackers
	// mean the predictor sees consistent per-thread histories, so
	// accuracy should stay close to the single-thread run (constructive
	// aliasing, §3), certainly not collapse.
	prof, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	single, err := RunBenchmark(core.MustNew(core.Config256K()), prof, 300_000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	iv := workload.NewInterleaved([]trace.Source{
		workload.MustNew(prof, 300_000),
		workload.MustNew(prof, 300_000),
	}, 800)
	smt := mustRun(t, core.MustNew(core.Config256K()), iv, Options{})
	smt.Workload = "perl-x2"
	if smt.Branches < 2*single.Branches*9/10 {
		t.Fatalf("SMT run too short: %d vs %d", smt.Branches, single.Branches)
	}
	if smt.MispKI() > single.MispKI()*1.6+0.5 {
		t.Errorf("SMT misp/KI %.3f collapsed vs single-thread %.3f",
			smt.MispKI(), single.MispKI())
	}
}

func TestGshareBeatsBimodalOnCorrelated(t *testing.T) {
	// A history predictor must beat bimodal on a correlation-heavy
	// benchmark — the substrate-level premise of the whole paper.
	prof, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	bi, err := RunBenchmark(bimodal.MustNew(1<<15), prof, 400_000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := RunBenchmark(gshare.MustNew(1<<15, 14), prof, 400_000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gs.MispKI() >= bi.MispKI() {
		t.Errorf("gshare %.3f should beat bimodal %.3f on li", gs.MispKI(), bi.MispKI())
	}
}

func TestModePlumbing(t *testing.T) {
	// The tracker mode must actually reach the predictor: a probe
	// predictor records the Hist values it sees; ghist and lghist modes
	// must differ on a real workload.
	prof, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	seen := func(mode frontend.Mode) uint64 {
		probe := &probePredictor{}
		g := workload.MustNew(prof, 50_000)
		mustRun(t, probe, g, Options{Mode: mode})
		return probe.xor
	}
	if seen(frontend.ModeGhist()) == seen(frontend.ModeLghist()) {
		t.Error("ghist and lghist modes produced identical history streams")
	}
}

// probePredictor accumulates a checksum of observed histories.
type probePredictor struct{ xor uint64 }

func (p *probePredictor) Predict(info *history.Info) bool { p.xor ^= info.Hist + 1; return false }
func (p *probePredictor) Update(*history.Info, bool)      {}
func (p *probePredictor) Name() string                    { return "probe" }
func (p *probePredictor) SizeBits() int                   { return 0 }
