package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ev8pred/internal/core"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/workload"
)

// The options contract: every entry point either honours every Options
// field — its Results equal Run's under the same Options, member by
// member — or rejects the field with its own typed error. The table
// crosses each entry point with every field at a non-default value, alone
// and all at once.

const contractInstr = 50_000

// contractCases is the field list. Batch chooses a schedule; the rest
// change what a run computes. "all" leaves Batch at BatchAuto, so the
// batch members take the kernel under every other field. The pool's
// schedule (PoolOptions) is crossed by the RunCells entries: per cell
// under EnsembleOff and under EnsembleAuto when the cells fit the
// workers, grouped under EnsembleAuto when they do not.
var contractCases = []struct {
	name string
	opts Options
}{
	{"zero", Options{}},
	{"mode+max", Options{Mode: frontend.ModeEV8(), MaxBranches: 500}},
	{"warmup", Options{Warmup: 10}},
	{"update delay", Options{UpdateDelay: 8}},
	{"lenient flow", Options{LenientFlow: true}},
	{"batch auto", Options{Batch: BatchAuto}},
	{"batch off", Options{Batch: BatchOff}},
	{"collect", Options{Collect: true}},
	{"all", Options{Mode: frontend.ModeEV8(), MaxBranches: 3000, UpdateDelay: 8, Warmup: 10,
		LenientFlow: true, Collect: true}},
}

// contractFactories are the members: a batch-capable predictor without
// attribution counters and one with them, both snapshottable, so every
// field has something to act on.
var contractFactories = []Factory{
	func() (predictor.Predictor, error) { return gshare.New(1<<12, 12) },
	func() (predictor.Predictor, error) { return core.New(core.Config256K()) },
}

// contractEntry is one entry point: run simulates the first members
// contract members and returns their Results; reject names the typed
// error and the field it must fail with under opts, or nil.
type contractEntry struct {
	name    string
	members int
	run     func(t *testing.T, prof workload.Profile, opts Options) ([]Result, error)
	reject  func(opts Options) (error, string)
}

// mustPredictors builds the first n contract members.
func mustPredictors(t *testing.T, n int) []predictor.Predictor {
	t.Helper()
	ps := make([]predictor.Predictor, n)
	for i := range ps {
		p, err := contractFactories[i]()
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	return ps
}

func runEnsembleEntry(n int) func(*testing.T, workload.Profile, Options) ([]Result, error) {
	return func(t *testing.T, prof workload.Profile, opts Options) ([]Result, error) {
		return RunEnsemble(contractFactories[:n], workload.MustNew(prof, contractInstr), opts)
	}
}

func runCellsEntry(workers int, mode EnsembleMode) func(*testing.T, workload.Profile, Options) ([]Result, error) {
	return func(t *testing.T, prof workload.Profile, opts Options) ([]Result, error) {
		cells := make([]Cell, len(contractFactories))
		for i, f := range contractFactories {
			cells[i] = Cell{Factory: f, Profile: prof, Opts: opts}
		}
		return RunCells(context.Background(), cells, contractInstr, PoolOptions{Workers: workers, Ensemble: mode})
	}
}

// runResumed stops the run halfway through its branches with
// RunCheckpoint, round-trips the checkpoint through its wire format, and
// resumes it on a fresh predictor over a rebuilt, repositioned source.
func runResumed(t *testing.T, prof workload.Profile, opts Options) ([]Result, error) {
	cut := opts
	cut.MaxBranches = 2000
	if opts.MaxBranches > 0 {
		cut.MaxBranches = opts.MaxBranches / 2
	}
	_, ck, err := RunCheckpoint(mustPredictors(t, 1)[0], workload.MustNew(prof, contractInstr), cut)
	if err != nil {
		return nil, err
	}
	blob, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	src := workload.MustNew(prof, contractInstr)
	if err := SkipRecords(src, back.Records); err != nil {
		t.Fatal(err)
	}
	r, err := ResumeFrom(mustPredictors(t, 1)[0], src, opts, &back)
	return []Result{r}, err
}

func runFrontEndEntry(t *testing.T, prof workload.Profile, opts Options) ([]Result, error) {
	r, err := RunFrontEnd(mustPredictors(t, 1)[0], workload.MustNew(prof, contractInstr), opts)
	return []Result{r.Result}, err
}

// honoursAll is the reject rule of an entry point that honours every field.
func honoursAll(Options) (error, string) { return nil, "" }

// frontEndRejects is RunFrontEnd's: the PC generator's counts have no
// warmup window.
func frontEndRejects(opts Options) (error, string) {
	if opts.Warmup != 0 {
		return ErrFrontEndOption, "Warmup"
	}
	return nil, ""
}

var (
	contractEntries = []contractEntry{
		{"RunEnsemble of one", 1, runEnsembleEntry(1), honoursAll},
		{"RunEnsemble of two", 2, runEnsembleEntry(2), honoursAll},
		{"RunCells EnsembleAuto per cell", 2, runCellsEntry(2, EnsembleAuto), honoursAll},
		{"RunCells EnsembleAuto grouped", 2, runCellsEntry(1, EnsembleAuto), honoursAll},
		{"RunCells EnsembleOff", 2, runCellsEntry(1, EnsembleOff), honoursAll},
		{"RunCheckpoint+ResumeFrom", 1, runResumed, honoursAll},
	}
	frontEndEntry = contractEntry{"RunFrontEnd", 1, runFrontEndEntry, frontEndRejects}
)

// checkContract runs one cell of the table against Run's Results.
func checkContract(t *testing.T, e contractEntry, opts Options) {
	t.Helper()
	prof, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.run(t, prof, opts)
	if sentinel, field := e.reject(opts); sentinel != nil {
		if !errors.Is(err, sentinel) {
			t.Fatalf("%s: got %v, want %v", e.name, err, sentinel)
		}
		if !strings.Contains(err.Error(), field) {
			t.Errorf("%s: error %q does not name %s", e.name, err, field)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", e.name, err)
	}
	for k, p := range mustPredictors(t, e.members) {
		want, err := Run(p, workload.MustNew(prof, contractInstr), opts)
		if err != nil {
			t.Fatalf("reference Run of %s: %v", p.Name(), err)
		}
		if want.Branches == 0 {
			t.Fatalf("reference Run of %s simulated no branches", p.Name())
		}
		g := got[k]
		g.Workload = ""
		if reflect.DeepEqual(g.Stats, want.Stats) {
			g.Stats = want.Stats
		}
		if g != want {
			t.Errorf("%s member %s: %+v != Run %+v", e.name, p.Name(), g, want)
		}
	}
}

// TestOptionsContract crosses RunEnsemble (of one and of two), RunCells
// (EnsembleAuto per cell and grouped, EnsembleOff) and RunCheckpoint→ResumeFrom with the field
// list; TestRunFrontEndRejectsUnsupportedOptions is the RunFrontEnd
// column.
func TestOptionsContract(t *testing.T) {
	for _, tc := range contractCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, e := range contractEntries {
				checkContract(t, e, tc.opts)
			}
		})
	}
}
