package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

func TestRunBenchmarkMode(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-predictors", "bimodal,gshare",
		"-benchmarks", "li",
		"-instructions", "200000",
		"-mode", "ghist",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"li", "bimodal", "gshare", "misp/KI"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSMTMode(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-predictors", "ev8",
		"-benchmarks", "perl",
		"-instructions", "100000",
		"-threads", "2",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "perl x2") {
		t.Errorf("SMT workload label missing:\n%s", sb.String())
	}
}

func TestRunTraceMode(t *testing.T) {
	prof, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(prof, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.ev8t")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteAll(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := run([]string{"-predictors", "2bcg256", "-trace", path, "-mode", "ghist"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2Bc-gskew-256Kbit") {
		t.Errorf("trace-mode output:\n%s", sb.String())
	}
}

// TestRunCorruptedTrace: a trace damaged mid-stream (one flipped bit,
// one truncated tail) must fail the run with a typed format error —
// silently simulating the valid prefix would fabricate results. The
// non-nil error is what makes the binary exit non-zero.
func TestRunCorruptedTrace(t *testing.T) {
	prof, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(prof, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.WriteAll(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	cases := map[string][]byte{
		"bitflip.ev8t":  append([]byte(nil), data...),
		"truncate.ev8t": data[:len(data)*2/3],
	}
	cases["bitflip.ev8t"][len(data)/2] ^= 0x10

	for name, mutant := range cases {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, mutant, 0o644); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		err := run([]string{"-predictors", "2bcg256", "-trace", path, "-mode", "ghist"}, &sb)
		if err == nil {
			t.Fatalf("%s: corrupted trace simulated without error:\n%s", name, sb.String())
		}
		if !errors.Is(err, trace.ErrBadFormat) {
			t.Fatalf("%s: error not ErrBadFormat: %v", name, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-predictors", "nonesuch"}, &sb); err == nil {
		t.Error("unknown predictor accepted")
	}
	if err := run([]string{"-mode", "nonesuch"}, &sb); err == nil || !strings.Contains(err.Error(), "lghist-nopath|old-lghist") {
		t.Errorf("unknown mode: err = %v, want frontend.ModeByName's error", err)
	}
	for _, flag := range []string{"-batch", "-ensemble"} {
		if err := run([]string{flag, "off"}, &sb); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s off: err = %v, want an undefined-flag error", flag, err)
		}
	}
	if err := run([]string{"-benchmarks", "nonesuch", "-instructions", "1000"}, &sb); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run([]string{"-trace", filepath.Join(t.TempDir(), "missing")}, &sb); err == nil {
		t.Error("missing trace accepted")
	}
}

func TestEveryFactoryBuilds(t *testing.T) {
	for name, f := range predictorFactories {
		p, err := f()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.SizeBits() <= 0 {
			t.Errorf("%s: SizeBits = %d", name, p.SizeBits())
		}
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
	if !strings.Contains(out.String(), "-predictors") {
		t.Errorf("-h output lacks -predictors:\n%s", out.String())
	}
}
