package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunProfiles: -cpuprofile and -memprofile write non-empty profiles,
// and an unwritable path fails before the sweep runs.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var sb strings.Builder
	if err := run([]string{
		"-scheme", "gshare", "-param", "history", "-values", "8,12",
		"-benchmarks", "li", "-instructions", "200000",
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
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		if err := run([]string{"-values", "8", "-benchmarks", "li", "-instructions", "1000",
			flag, filepath.Join(dir, "no", "such", "dir.pprof")}, &sb); err == nil {
			t.Errorf("unwritable %s path accepted", flag)
		}
	}
}
