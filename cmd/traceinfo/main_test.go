package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

func writeTestTrace(t *testing.T) string {
	t.Helper()
	prof, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(prof, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.ev8t")
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
	return path
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
