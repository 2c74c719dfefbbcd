package ev8pred_test

// Differential test for the fused predict/update hot path: every fused
// predictor must produce byte-identical Results whether sim.Run routes it
// through Lookup/UpdateWith or through the plain Predict/Update pair. The
// unfused leg is forced by wrapping the predictor in a type that hides the
// FusedPredictor methods (but still forwards ObserveBlock, which the EV8
// bank sequencer needs). The UpdateDelay > 0 cases prove the snapshot
// survives the commit-delay queue intact.

import (
	"testing"

	"ev8pred"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/sim"
)

// unfused delegates the plain Predictor interface and nothing else, so
// sim.Run's FusedPredictor type assertion fails and the fallback path runs.
type unfused struct{ p ev8pred.Predictor }

func (u *unfused) Predict(info *ev8pred.Info) bool       { return u.p.Predict(info) }
func (u *unfused) Update(info *ev8pred.Info, taken bool) { u.p.Update(info, taken) }
func (u *unfused) Name() string                          { return u.p.Name() }
func (u *unfused) SizeBits() int                         { return u.p.SizeBits() }

// unfusedObserver additionally forwards the fetch-block stream; without it
// a wrapped EV8 would never advance its bank sequencer.
type unfusedObserver struct {
	unfused
	obs sim.BlockObserver
}

func (u *unfusedObserver) ObserveBlock(b frontend.Block) { u.obs.ObserveBlock(b) }

// hideFused wraps p so only the plain interface is visible.
func hideFused(p ev8pred.Predictor) ev8pred.Predictor {
	if obs, ok := p.(sim.BlockObserver); ok {
		return &unfusedObserver{unfused{p}, obs}
	}
	return &unfused{p}
}

type fusedCase struct {
	name  string
	mode  ev8pred.Mode
	fused bool // whether the raw predictor must implement FusedPredictor
	make  func() (ev8pred.Predictor, error)
}

func fusedRoster() []fusedCase {
	return []fusedCase{
		{"ev8", ev8pred.ModeEV8(), true,
			func() (ev8pred.Predictor, error) { return ev8pred.NewEV8(), nil }},
		{"2bcg-256K", ev8pred.ModeGhist(), true,
			func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.Config256K()) }},
		{"2bcg-512K", ev8pred.ModeGhist(), true,
			func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.Config512K()) }},
		{"2bcg-ev8size", ev8pred.ModeGhist(), true,
			func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.ConfigEV8Size()) }},
		{"egskew-partial", ev8pred.ModeGhist(), true,
			func() (ev8pred.Predictor, error) { return ev8pred.NewEGskew(8192, 13, true) }},
		{"egskew-total", ev8pred.ModeGhist(), true,
			func() (ev8pred.Predictor, error) { return ev8pred.NewEGskew(8192, 13, false) }},
		{"gshare", ev8pred.ModeGhist(), true,
			func() (ev8pred.Predictor, error) { return ev8pred.NewGshare(1<<16, 16) }},
		// Unfused control: the wrapper must be an exact no-op for plain
		// predictors too.
		{"bimodal", ev8pred.ModeGhist(), false,
			func() (ev8pred.Predictor, error) { return ev8pred.NewBimodal(1 << 14) }},
	}
}

// runBoth simulates a cold raw predictor (fused path when available) and a
// cold hidden-interface copy (always the fallback path) over one benchmark
// and returns both Results.
func runBoth(t *testing.T, tc fusedCase, bench string, instr int64, delay int) (raw, hidden ev8pred.Result) {
	t.Helper()
	prof, err := ev8pred.BenchmarkByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	opts := ev8pred.Options{Mode: tc.mode, UpdateDelay: delay}
	run := func(p ev8pred.Predictor) ev8pred.Result {
		r, err := ev8pred.RunBenchmark(p, prof, instr, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	p1, err := tc.make()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := tc.make()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p1.(predictor.FusedPredictor); ok != tc.fused {
		t.Fatalf("%s: FusedPredictor assertion = %v, want %v", tc.name, ok, tc.fused)
	}
	w := hideFused(p2)
	if _, ok := w.(predictor.FusedPredictor); ok {
		t.Fatalf("%s: hideFused wrapper still satisfies FusedPredictor", tc.name)
	}
	return run(p1), run(w)
}

// TestFusedUnfusedEquivalent runs every predictor over every benchmark via
// both paths with immediate update and asserts identical Results.
func TestFusedUnfusedEquivalent(t *testing.T) {
	for _, tc := range fusedRoster() {
		t.Run(tc.name, func(t *testing.T) {
			for _, prof := range ev8pred.Benchmarks() {
				raw, hidden := runBoth(t, tc, prof.Name, 100_000, 0)
				if raw != hidden {
					t.Errorf("%s/%s: fused %+v != unfused %+v", tc.name, prof.Name, raw, hidden)
				}
				if raw.Branches == 0 {
					t.Errorf("%s/%s: degenerate run (0 branches)", tc.name, prof.Name)
				}
			}
		})
	}
}

// TestFusedUnfusedEquivalentDelayed repeats the comparison under a commit
// delay: the snapshot is carried through sim.Run's pending-update queue for
// up to 1500 branches before training, and the Results must still match
// exactly. For the EV8 this additionally exercises the predictor's internal
// prediction-time snapshot pairing — the bank sequencer has advanced by the
// time the update arrives, so recomputing indices at update time would
// diverge — including delays at and past the 64 snapshots its ring once
// held.
func TestFusedUnfusedEquivalentDelayed(t *testing.T) {
	benches := []string{"gcc", "go", "li"}
	for _, tc := range fusedRoster() {
		t.Run(tc.name, func(t *testing.T) {
			for _, bench := range benches {
				for _, delay := range []int{1, 8, 64, 1500} {
					raw, hidden := runBoth(t, tc, bench, 100_000, delay)
					if raw != hidden {
						t.Errorf("%s/%s delay=%d: fused %+v != unfused %+v",
							tc.name, bench, delay, raw, hidden)
					}
				}
			}
		})
	}
}

// TestFusedPredictMatchesLookup pins the interface contract directly:
// Predict(info) must equal Lookup(info).Final at every point of a run.
func TestFusedPredictMatchesLookup(t *testing.T) {
	for _, tc := range fusedRoster() {
		if !tc.fused {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.make()
			if err != nil {
				t.Fatal(err)
			}
			fp := p.(predictor.FusedPredictor)
			prof, err := ev8pred.BenchmarkByName("gcc")
			if err != nil {
				t.Fatal(err)
			}
			src, err := ev8pred.NewWorkload(prof, 50_000)
			if err != nil {
				t.Fatal(err)
			}
			// Drive the front end by hand so we can call both entry points
			// on the same information vector before training once.
			tr := frontend.NewTracker(tc.mode)
			if obs, ok := p.(sim.BlockObserver); ok {
				tr.OnBlock(obs.ObserveBlock)
			}
			records, err := ev8pred.CollectTrace(src, 0)
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for _, b := range records {
				info, isCond := tr.Process(b)
				if !isCond {
					continue
				}
				s := fp.Lookup(&info)
				if got := p.Predict(&info); got != s.Final {
					t.Fatalf("branch %d: Predict=%v, Lookup.Final=%v", checked, got, s.Final)
				}
				fp.UpdateWith(s, b.Taken)
				checked++
			}
			if checked == 0 {
				t.Fatal("no conditional branches seen")
			}
		})
	}
}
