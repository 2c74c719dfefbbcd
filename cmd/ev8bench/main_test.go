package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ev8pred/internal/cliflag"
	"ev8pred/internal/experiments"
	"ev8pred/internal/shard"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

func TestRunSingleExperiment(t *testing.T) {
	var sb, eb strings.Builder
	err := run([]string{
		"-experiment", "table1",
	}, &sb, &eb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"table1", "BIM", "352 Kbits"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if eb.Len() != 0 {
		t.Errorf("progress output without -v: %q", eb.String())
	}
}

func TestRunBenchmarkSubset(t *testing.T) {
	var sb, eb strings.Builder
	err := run([]string{
		"-experiment", "table2", "-benchmarks", "li,perl", "-instructions", "100000",
	}, &sb, &eb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "li") || !strings.Contains(out, "perl") {
		t.Errorf("subset missing:\n%s", out)
	}
	if strings.Contains(out, "vortex") {
		t.Error("unrequested benchmark in output")
	}
}

func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.txt")
	var sb, eb strings.Builder
	if err := run([]string{"-experiment", "table1", "-o", path}, &sb, &eb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "352 Kbits") {
		t.Errorf("file content: %s", data)
	}
	if sb.Len() != 0 {
		t.Error("-o should redirect output away from stdout")
	}
}

func TestRunErrors(t *testing.T) {
	var sb, eb strings.Builder
	if err := run([]string{"-experiment", "nonesuch"}, &sb, &eb); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-benchmarks", "nonesuch"}, &sb, &eb); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run([]string{"-badflag"}, &sb, &eb); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunFlagValidation pins the malformed-flag audit: every rejected
// invocation must fail fast with the matching typed error (not simulate
// first, not exit on a cryptic Sscanf mismatch).
func TestRunFlagValidation(t *testing.T) {
	base := []string{"-experiment", "none"}
	cases := []struct {
		name string
		args []string
		want func(error) bool
	}{
		{"negative workers", []string{"-j", "-2"}, isCliflagError},
		{"shard k==N", []string{"-cache", t.TempDir(), "-shard", "3/3"}, isShardSpecError},
		{"shard k>N", []string{"-cache", t.TempDir(), "-shard", "4/3"}, isShardSpecError},
		{"shard zero count", []string{"-cache", t.TempDir(), "-shard", "0/0"}, isShardSpecError},
		{"shard non-numeric", []string{"-cache", t.TempDir(), "-shard", "x/3"}, isShardSpecError},
		{"shard trailing garbage", []string{"-cache", t.TempDir(), "-shard", "0/3x"}, isShardSpecError},
		{"expvar no port", []string{"-expvar", "localhost"}, isCliflagError},
		{"expvar bad port", []string{"-expvar", "localhost:notaport"}, isCliflagError},
		{"expvar empty", []string{"-expvar", " "}, isCliflagError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb, eb strings.Builder
			err := run(append(append([]string{}, base...), tc.args...), &sb, &eb)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !tc.want(err) {
				t.Errorf("args %v: error %v (%T) is not the expected typed error", tc.args, err, err)
			}
		})
	}
}

func isCliflagError(err error) bool {
	var ce *cliflag.Error
	return errors.As(err, &ce)
}

func isShardSpecError(err error) bool {
	var se *shard.SpecError
	return errors.As(err, &se)
}

// TestRunWorkersIdenticalReport is the CLI-level determinism contract: the
// report is byte-identical whether cells run serially (-j 1) or on a
// crowded pool (-j 8). Timing lines vary run to run, so they are stripped
// before comparison.
func TestRunWorkersIdenticalReport(t *testing.T) {
	render := func(j string) string {
		var sb, eb strings.Builder
		err := run([]string{
			"-experiment", "fig10", "-benchmarks", "li,m88ksim",
			"-instructions", "100000", "-j", j,
		}, &sb, &eb)
		if err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.Contains(line, "s)") && strings.HasPrefix(strings.TrimSpace(line), "(") {
				continue // per-experiment timing line
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	serial := render("1")
	parallel := render("8")
	if serial != parallel {
		t.Errorf("-j 1 and -j 8 reports differ:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", serial, parallel)
	}
}

// TestRunProfiles exercises -cpuprofile/-memprofile: both files must exist
// and be non-empty (pprof profiles are gzipped protobufs, so content checks
// stop at "non-trivial bytes").
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var sb, eb strings.Builder
	err := run([]string{
		"-experiment", "table2", "-benchmarks", "li", "-instructions", "100000",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &sb, &eb)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s: empty profile", path)
		}
	}
	if err := run([]string{"-experiment", "table1", "-cpuprofile", filepath.Join(dir, "no", "such", "dir.pprof")}, &sb, &eb); err == nil {
		t.Error("unwritable cpuprofile path accepted")
	}
}

func TestRunVerboseProgress(t *testing.T) {
	var sb, eb strings.Builder
	err := run([]string{
		"-experiment", "fig10", "-benchmarks", "li", "-instructions", "100000", "-v",
	}, &sb, &eb)
	if err != nil {
		t.Fatal(err)
	}
	progress := eb.String()
	for _, want := range []string{"fig10: cell", "br/s", "total:", "cells"} {
		if !strings.Contains(progress, want) {
			t.Errorf("progress stream missing %q:\n%s", want, progress)
		}
	}
	if strings.Contains(sb.String(), "br/s") {
		t.Error("progress leaked into the report stream")
	}
}

// TestRunEnsembleModesIdenticalReport: the report the CLI renders, with
// the pool choosing the schedule (-j 1, so the fig10 grid runs as
// ensembles), must be byte-identical to the experiment rendered under
// the per-cell reference schedule (experiments.Config.Pool.Ensemble =
// EnsembleOff). The schedule is no user's choice: -ensemble and -batch
// are undefined flags.
func TestRunEnsembleModesIdenticalReport(t *testing.T) {
	var sb, eb strings.Builder
	if err := run([]string{
		"-experiment", "fig10", "-benchmarks", "li,m88ksim",
		"-instructions", "100000", "-j", "1",
	}, &sb, &eb); err != nil {
		t.Fatal(err)
	}
	e, err := experiments.ByID("fig10")
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Config{Instructions: 100_000,
		Pool: sim.PoolOptions{Workers: 1, Ensemble: sim.EnsembleOff}}
	for _, name := range []string{"li", "m88ksim"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Benchmarks = append(cfg.Benchmarks, p)
	}
	tbl, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := tbl.String(); !strings.Contains(sb.String(), want) {
		t.Errorf("CLI report does not contain the EnsembleOff table:\n--- CLI ---\n%s\n--- off ---\n%s", sb.String(), want)
	}
	for _, flag := range []string{"-ensemble", "-batch"} {
		var sb, eb strings.Builder
		if err := run([]string{flag, "off"}, &sb, &eb); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s off: err = %v, want an undefined-flag error", flag, err)
		}
	}
}

// TestRunBadFlag: a mistyped flag is one error line with a hint to use
// -h, and -h prints the full usage to the output writer.
func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	runArgs := func(args ...string) error { return run(args, &out, io.Discard) }
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
	if !strings.Contains(out.String(), "-experiment") {
		t.Errorf("-h output lacks -experiment:\n%s", out.String())
	}
}
