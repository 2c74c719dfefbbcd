package main

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ev8pred/internal/frontend"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

func writeTestTrace(t *testing.T) string {
	t.Helper()
	return writeTrace(t, "p.ev8t", newGen(t, "perl"))
}

// newGen is a 50K-instruction generator for the named benchmark.
func newGen(t *testing.T, name string) trace.Source {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(prof, 50_000)
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

// row runs the tool on one file and returns the fields of its table
// row: file, instr, cond branches, transfers, static, taken%, br/KI,
// fetch blocks, br per lghist bit.
func row(t *testing.T, path string) []string {
	t.Helper()
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) == 9 && f[0] == path {
			return f
		}
	}
	t.Fatalf("no row for %s in:\n%s", path, sb.String())
	return nil
}

// TestRunMultiThreadTrace: each thread of an interleaved trace walks
// its own front end. Two threads running the same program form exactly
// twice the fetch blocks of one, at the same branches per lghist bit.
func TestRunMultiThreadTrace(t *testing.T) {
	one := row(t, writeTrace(t, "li.ev8t", newGen(t, "li")))
	two := row(t, writeTrace(t, "li2.ev8t", workload.NewInterleaved(
		[]trace.Source{newGen(t, "li"), newGen(t, "li")}, 500)))
	blocks, err := strconv.ParseInt(one[7], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if want := strconv.FormatInt(2*blocks, 10); two[7] != want {
		t.Errorf("two-thread fetch blocks = %s, want %s (2 x %d)", two[7], want, blocks)
	}
	if two[8] != one[8] {
		t.Errorf("two-thread br per lghist bit = %s, want %s", two[8], one[8])
	}
}

// TestRunFlowBreak: a single-thread record that does not continue the
// flow of the one before it is an error naming the file, not a panic.
func TestRunFlowBreak(t *testing.T) {
	path := writeTrace(t, "broken.ev8t", trace.NewSlice([]trace.Branch{
		{PC: 0x1000, Target: 0x2000, Taken: true},
		{PC: 0x5000, Target: 0x6000, Taken: true}, // flow is at 0x2000
	}))
	var sb strings.Builder
	err := run([]string{path}, &sb)
	if !errors.Is(err, frontend.ErrFlow) || !strings.Contains(err.Error(), path) {
		t.Errorf("err = %v, want a flow error naming %s", err, path)
	}
}

func TestRunInspectsTrace(t *testing.T) {
	path := writeTestTrace(t)
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"cond branches", "fetch blocks", path} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Error("no arguments accepted")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing")}, &sb); err == nil {
		t.Error("missing file accepted")
	}
}

// TestRunBadFlag: a mistyped flag is one error line with a hint to use
// -h, and -h prints the usage to the output writer.
func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-no-such-flag"}, &out)
	if err == nil || strings.Contains(err.Error(), "\n") || !strings.Contains(err.Error(), "-h") {
		t.Errorf("bad flag: err = %q, want one line naming -h", err)
	}
	if out.Len() != 0 {
		t.Errorf("bad flag wrote %q to the output", out.String())
	}
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(out.String(), "traceinfo <file.ev8t>") {
		t.Errorf("-h output lacks the usage line:\n%s", out.String())
	}
}
