package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"ev8pred/internal/cliflag"
	"ev8pred/internal/frontend"
	"ev8pred/internal/shard"
	"ev8pred/internal/sim"
	"ev8pred/internal/sweep"
	"ev8pred/internal/workload"
)

func TestRunGshareHistorySweep(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-scheme", "gshare", "-param", "history", "-values", "4,12",
		"-benchmarks", "m88ksim", "-instructions", "100000",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"gshare sweep", "m88ksim", "best history"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRun2bcgSizeSweep(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-scheme", "2bcg", "-param", "size", "-values", "12,13",
		"-benchmarks", "li", "-instructions", "100000", "-mode", "ev8",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "best size") {
		t.Errorf("output:\n%s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-values", "x"}, &sb); err == nil {
		t.Error("non-numeric value accepted")
	}
	if err := run([]string{"-scheme", "nonesuch", "-values", "4"}, &sb); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run([]string{"-mode", "nonesuch", "-values", "4"}, &sb); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"-benchmarks", "nonesuch", "-values", "4"}, &sb); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestRunFlagValidation pins the malformed-flag audit for the sweep CLI:
// negative worker counts and malformed shard specs fail fast with typed
// errors before any simulation starts.
func TestRunFlagValidation(t *testing.T) {
	base := []string{"-values", "4", "-benchmarks", "li", "-instructions", "100000"}
	t.Run("negative workers", func(t *testing.T) {
		var sb strings.Builder
		err := run(append(append([]string{}, base...), "-j", "-1"), &sb)
		var ce *cliflag.Error
		if !errors.As(err, &ce) {
			t.Fatalf("-j -1: error %v (%T) is not *cliflag.Error", err, err)
		}
	})
	for _, bad := range []string{"3/3", "5/3", "0/0", "x/3", "0/3x", "0.5/3"} {
		t.Run("shard "+bad, func(t *testing.T) {
			var sb strings.Builder
			err := run(append(append([]string{}, base...),
				"-cache", t.TempDir(), "-manifest", t.TempDir(), "-shard", bad), &sb)
			var se *shard.SpecError
			if !errors.As(err, &se) {
				t.Fatalf("-shard %s: error %v (%T) is not *shard.SpecError", bad, err, err)
			}
		})
	}
}

func TestBuildFactoryCoverage(t *testing.T) {
	for _, combo := range []struct{ scheme, param string }{
		{"gshare", "history"}, {"gshare", "size"},
		{"2bcg", "history"}, {"2bcg", "size"},
		{"perceptron", "history"},
	} {
		f, err := sweep.FamilyFactory(combo.scheme, combo.param)
		if err != nil {
			t.Errorf("%s/%s: %v", combo.scheme, combo.param, err)
			continue
		}
		p, err := f(12)
		if err != nil {
			t.Errorf("%s/%s factory(12): %v", combo.scheme, combo.param, err)
			continue
		}
		if p.SizeBits() <= 0 {
			t.Errorf("%s/%s: SizeBits = %d", combo.scheme, combo.param, p.SizeBits())
		}
	}
}

// TestRunEnsembleModesIdenticalTable: the sweep table the CLI renders,
// with the pool choosing the schedule (-j 1, so the 6 cells run as one
// ensemble per benchmark), must be byte-identical to the table of the
// same sweep under the per-cell reference schedule (EnsembleOff). The
// schedule is no user's choice: -ensemble and -batch are undefined flags.
func TestRunEnsembleModesIdenticalTable(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{
		"-scheme", "gshare", "-param", "history", "-values", "6,10,14",
		"-benchmarks", "li,go", "-instructions", "100000", "-j", "1",
	}, &sb); err != nil {
		t.Fatal(err)
	}
	factory, err := sweep.FamilyFactory("gshare", "history")
	if err != nil {
		t.Fatal(err)
	}
	var profs []workload.Profile
	for _, name := range []string{"li", "go"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profs = append(profs, p)
	}
	pts, err := sweep.RunPool(factory, []int{6, 10, 14}, profs, 100_000,
		sim.Options{Mode: frontend.ModeGhist()}, sim.PoolOptions{Workers: 1, Ensemble: sim.EnsembleOff})
	if err != nil {
		t.Fatal(err)
	}
	off := sweep.Table("gshare sweep: history (ghist info vector, 100000 instr/bench)", "history", pts).String()
	if got := sb.String(); got != off {
		t.Errorf("CLI table differs from the EnsembleOff table:\n%s\n---\n%s", got, off)
	}
	for _, flag := range []string{"-ensemble", "-batch"} {
		var sb strings.Builder
		if err := run([]string{"-values", "4", flag, "off"}, &sb); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s off: err = %v, want an undefined-flag error", flag, err)
		}
	}
}

// shardBaseArgs is the small sweep the CLI sharding tests (and the make
// shard-gate target) run: 3 values x 2 benchmarks = 6 cells.
var shardBaseArgs = []string{
	"-scheme", "gshare", "-param", "history", "-values", "6,10,14",
	"-benchmarks", "li,go", "-instructions", "50000",
}

// shardRun invokes the CLI and returns its stdout.
func shardRun(t *testing.T, extra ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(append(append([]string{}, shardBaseArgs...), extra...), &sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestShardGateThreeWayMergeMatchesUnsharded is the shard gate: the same
// sweep split across three sequential worker invocations and merged must
// emit a table AND a JSON stream byte-identical to the single-process
// run — the CLI-level form of the merge-determinism guarantee.
func TestShardGateThreeWayMergeMatchesUnsharded(t *testing.T) {
	unshardedTable := shardRun(t)
	unshardedJSON := shardRun(t, "-json", "-")

	cacheDir := filepath.Join(t.TempDir(), "store")
	manifestDir := filepath.Join(t.TempDir(), "manifests")
	for k := 0; k < 3; k++ {
		out := shardRun(t, "-cache", cacheDir, "-shard", fmt.Sprintf("%d/3", k), "-manifest", manifestDir)
		if !strings.Contains(out, fmt.Sprintf("shard %d/3:", k)) || !strings.Contains(out, "manifest") {
			t.Errorf("worker %d summary: %q", k, out)
		}
		if strings.Contains(out, "MEAN") {
			t.Errorf("worker %d printed a sweep table: %q", k, out)
		}
	}

	mergedTable := shardRun(t, "-cache", cacheDir, "-merge", manifestDir)
	if mergedTable != unshardedTable {
		t.Errorf("merged table differs from the unsharded run:\n--- merged\n%s\n--- unsharded\n%s", mergedTable, unshardedTable)
	}
	mergedJSON := shardRun(t, "-cache", cacheDir, "-merge", manifestDir, "-json", "-")
	if mergedJSON != unshardedJSON {
		t.Errorf("merged JSON differs from the unsharded run:\n--- merged\n%s\n--- unsharded\n%s", mergedJSON, unshardedJSON)
	}
}

// TestShardFlagValidation pins the CLI contract: worker and coordinator
// modes need the store, the worker needs a manifest directory, the two
// modes are exclusive, bad specs are rejected, and a merge over an
// incomplete sweep fails loudly naming what is missing.
func TestShardFlagValidation(t *testing.T) {
	var sb strings.Builder
	args := func(extra ...string) []string { return append(append([]string{}, shardBaseArgs...), extra...) }
	mdir := t.TempDir()
	cdir := filepath.Join(t.TempDir(), "store")

	if err := run(args("-shard", "0/3", "-manifest", mdir), &sb); err == nil || !strings.Contains(err.Error(), "-cache") {
		t.Errorf("-shard without -cache: %v", err)
	}
	if err := run(args("-shard", "0/3", "-cache", cdir), &sb); err == nil || !strings.Contains(err.Error(), "-manifest") {
		t.Errorf("-shard without -manifest: %v", err)
	}
	if err := run(args("-merge", mdir), &sb); err == nil || !strings.Contains(err.Error(), "-cache") {
		t.Errorf("-merge without -cache: %v", err)
	}
	if err := run(args("-shard", "0/3", "-merge", mdir, "-cache", cdir, "-manifest", mdir), &sb); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-shard with -merge: %v", err)
	}
	if err := run(args("-shard", "3/3", "-cache", cdir, "-manifest", mdir), &sb); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range spec: %v", err)
	}

	// One worker of two, then a premature merge: loud, typed, named.
	sb.Reset()
	if err := run(args("-cache", cdir, "-shard", "0/2", "-manifest", mdir), &sb); err != nil {
		t.Fatal(err)
	}
	err := run(args("-cache", cdir, "-merge", mdir), &sb)
	if err == nil || !strings.Contains(err.Error(), "incomplete") || !strings.Contains(err.Error(), "shard 1/2") {
		t.Errorf("premature merge: %v", err)
	}
}

// TestRunBadFlag: a mistyped flag is one error line with a hint to use
// -h, and -h prints the full usage to the output writer.
func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	runArgs := func(args ...string) error { return run(args, &out) }
	err := runArgs("-no-such-flag")
	if err == nil || strings.Contains(err.Error(), "\n") || !strings.Contains(err.Error(), "-h") {
		t.Errorf("bad flag: err = %q, want one line naming -h", err)
	}
	if out.Len() != 0 {
		t.Errorf("bad flag wrote %q to the output", out.String())
	}
	if err := runArgs("-h"); err != nil {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(out.String(), "-scheme") {
		t.Errorf("-h output lacks -scheme:\n%s", out.String())
	}
}
