package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ev8pred/internal/cliflag"
	"ev8pred/internal/report"
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
	path := writeTrace(t, "c.ev8t", newGen(t, "compress", 100_000))
	var sb strings.Builder
	if err := run([]string{"-predictors", "2bcg256", "-trace", path, "-mode", "ghist"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2Bc-gskew-256Kbit") {
		t.Errorf("trace-mode output:\n%s", sb.String())
	}
}

// newGen is a generator for the named benchmark.
func newGen(t *testing.T, name string, instructions int64) trace.Source {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(prof, instructions)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// writeTrace writes src to a trace file named name in a fresh
// directory and returns its path.
func writeTrace(t *testing.T, name string, src trace.Source) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteAll(f, src); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runJSON runs the tool with -json - and returns its records.
func runJSON(t *testing.T, args ...string) []report.Run {
	t.Helper()
	var sb strings.Builder
	if err := run(append(args, "-json", "-"), &sb); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	var runs []report.Run
	if err := json.Unmarshal([]byte(sb.String()), &runs); err != nil {
		t.Fatalf("%v: invalid JSON: %v\n%s", args, err, sb.String())
	}
	return runs
}

// TestRunEnsembleMatchesSeparateRuns: -predictors a,b,c runs every
// predictor in one pass over each workload, and its records are those
// of one invocation per predictor, workload by workload.
func TestRunEnsembleMatchesSeparateRuns(t *testing.T) {
	path := writeTrace(t, "li.ev8t", newGen(t, "li", 100_000))
	preds := []string{"ev8", "gshare", "cascade"}
	for name, args := range map[string][]string{
		"synthetic": {"-benchmarks", "li,perl", "-instructions", "100000"},
		"threads":   {"-benchmarks", "perl", "-instructions", "50000", "-threads", "3"},
		"trace":     {"-trace", path},
	} {
		t.Run(name, func(t *testing.T) {
			args = append(args, "-stats")
			got := runJSON(t, append([]string{"-predictors", strings.Join(preds, ",")}, args...)...)
			want := make([]report.Run, len(got))
			for i, p := range preds {
				single := runJSON(t, append([]string{"-predictors", p}, args...)...)
				if len(single)*len(preds) != len(got) {
					t.Fatalf("%s alone: %d records, ensemble %d", p, len(single), len(got))
				}
				for w, r := range single {
					want[w*len(preds)+i] = r
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ensemble records differ from separate runs:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestRunTraceMultiThread: a trace of two interleaved threads runs, and
// matches -threads over the same interleaving apart from its label.
func TestRunTraceMultiThread(t *testing.T) {
	path := writeTrace(t, "li2.ev8t", workload.NewInterleaved(
		[]trace.Source{newGen(t, "li", 50_000), newGen(t, "li", 50_000)}, 500))
	got := runJSON(t, "-predictors", "ev8,local", "-trace", path)
	want := runJSON(t, "-predictors", "ev8,local", "-benchmarks", "li",
		"-instructions", "50000", "-threads", "2", "-quantum", "500")
	for i := range want {
		want[i].Workload = path
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("two-thread trace:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunCheckpointResumeTrace: -save-checkpoint then -resume over a
// trace file reproduces the uninterrupted run's record.
func TestRunCheckpointResumeTrace(t *testing.T) {
	path := writeTrace(t, "c.ev8t", newGen(t, "compress", 100_000))
	ck := filepath.Join(t.TempDir(), "ck.bin")
	want := runJSON(t, "-predictors", "ev8", "-trace", path)
	runJSON(t, "-predictors", "ev8", "-trace", path,
		"-save-checkpoint", ck, "-checkpoint-branches", "5000")
	got := runJSON(t, "-predictors", "ev8", "-trace", path, "-resume", ck)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed run:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunTraceRejectsWorkloadFlags: a trace fixes its own stream, so a
// synthetic-workload flag given beside -trace is a flag error rather
// than silently ignored.
func TestRunTraceRejectsWorkloadFlags(t *testing.T) {
	path := writeTrace(t, "c.ev8t", newGen(t, "compress", 20_000))
	for _, bad := range [][]string{
		{"-threads", "4"}, {"-quantum", "500"},
		{"-instructions", "1000"}, {"-benchmarks", "perl"},
	} {
		var ce *cliflag.Error
		err := run(append([]string{"-trace", path}, bad...), io.Discard)
		if !errors.As(err, &ce) || ce.Flag != bad[0][1:] {
			t.Errorf("%v with -trace: err = %v, want a *cliflag.Error for %s", bad, err, bad[0])
		}
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
	for _, bad := range [][]string{
		{"-instructions", "-5"}, {"-instructions", "0"},
		{"-threads", "0"}, {"-threads", "-1"},
		{"-quantum", "0"}, {"-quantum", "-1000", "-threads", "2"},
	} {
		var ce *cliflag.Error
		if err := runWithin(t, append([]string{"-benchmarks", "gcc"}, bad...)...); !errors.As(err, &ce) {
			t.Errorf("%v: error %v (%T) is not *cliflag.Error", bad, err, err)
		}
	}
}

// runWithin runs the tool and fails the test unless it returns within a
// minute: a budget the tool should reject would otherwise run forever.
func runWithin(t *testing.T, args ...string) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run(args, io.Discard) }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Minute):
		t.Fatalf("%v: still running after a minute", args)
		return nil
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
