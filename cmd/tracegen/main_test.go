package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ev8pred/internal/trace"
)

func TestRunGeneratesReadableTraces(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	err := run([]string{
		"-benchmarks", "compress",
		"-instructions", "100000",
		"-dir", dir,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "compress.ev8t") {
		t.Errorf("summary missing file name:\n%s", sb.String())
	}
	r, closer, err := trace.Open(filepath.Join(dir, "compress.ev8t"))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	recs, err := trace.Collect(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty trace written")
	}
}

func TestRunGzip(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	err := run([]string{
		"-benchmarks", "li", "-instructions", "50000", "-dir", dir, "-gzip",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "li.ev8t.gz")
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	r, closer, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if recs, err := trace.Collect(r, 10); err != nil || len(recs) != 10 {
		t.Errorf("gzip trace yielded %d records, err %v", len(recs), err)
	}
}

// TestRunFormat1 checks the compatibility escape hatch: -format 1
// emits a legacy stream old readers accept, and the library reads it
// back as version 1.
func TestRunFormat1(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	err := run([]string{
		"-benchmarks", "compress", "-instructions", "50000", "-dir", dir, "-format", "1",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "compress.ev8t"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 1 {
		t.Fatalf("trace version = %d, want 1", r.Version())
	}
	recs, err := trace.Collect(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty v1 trace written")
	}
}

func TestRunFormatRejected(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-benchmarks", "compress", "-dir", t.TempDir(), "-format", "3"}, &sb); err == nil {
		t.Error("unsupported format version accepted")
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-benchmarks", "nonesuch"}, &sb); err == nil {
		t.Error("unknown benchmark accepted")
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
	if !strings.Contains(out.String(), "-benchmarks") {
		t.Errorf("-h output lacks -benchmarks:\n%s", out.String())
	}
}
