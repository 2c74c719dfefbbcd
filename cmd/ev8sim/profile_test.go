package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestRunProfiles: -cpuprofile and -memprofile write non-empty profiles,
// an unwritable path fails before the run, and on a machine with a spare
// CPU the CPU profile shows the generator and the front-end walk running
// in the stream pipeline's producer goroutine.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var sb strings.Builder
	if err := run([]string{
		"-predictors", "ev8", "-benchmarks", "gcc", "-instructions", "20000000",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &sb); err != nil {
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
	if runtime.GOMAXPROCS(0) > 1 {
		// A profile is a gzipped protobuf whose string table holds the
		// names of the sampled functions.
		f, err := os.Open(cpu)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(raw, []byte("(*feed).produce")) {
			t.Error("CPU profile shows no sample in the pipeline's producer goroutine")
		}
	}
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		if err := run([]string{"-benchmarks", "li", "-instructions", "1000",
			flag, filepath.Join(dir, "no", "such", "dir.pprof")}, &sb); err == nil {
			t.Errorf("unwritable %s path accepted", flag)
		}
	}
}
