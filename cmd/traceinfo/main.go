// Command traceinfo inspects trace files written by tracegen (plain or
// gzip-compressed) and prints their characteristics.
//
// Usage:
//
//	traceinfo file.ev8t [file2.ev8t.gz ...]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ev8pred/internal/frontend"
	"ev8pred/internal/report"
	"ev8pred/internal/trace"
)

func main() {
	flag.Parse()
	if err := run(flag.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "traceinfo:", err)
		os.Exit(1)
	}
}

// run inspects each trace file and writes the summary table to out.
func run(paths []string, out io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("usage: traceinfo <file.ev8t> [...]")
	}
	tbl := report.New("trace characteristics",
		"file", "instr", "cond branches", "transfers", "static",
		"taken%", "br/KI", "fetch blocks", "br per lghist bit")
	for _, path := range paths {
		if err := inspect(tbl, path); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return tbl.Fprint(out)
}

func inspect(tbl *report.Table, path string) error {
	r, closer, err := trace.Open(path)
	if err != nil {
		return err
	}
	defer closer.Close()
	stats := trace.NewStats()
	tr := frontend.NewTracker(frontend.ModeEV8())
	buf := make([]trace.Branch, 1024)
	for {
		n, err := r.NextBatch(buf)
		for _, b := range buf[:n] {
			stats.Add(b)
			tr.Process(b)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	perBit := 0.0
	if tr.LghistBits() > 0 {
		perBit = float64(tr.CondBranches()) / float64(tr.LghistBits())
	}
	tbl.AddRowf(path, stats.Instructions, stats.DynamicBranches,
		stats.Transfers, stats.StaticBranches, 100*stats.TakenRate(),
		stats.BranchesPerKI(), tr.Blocks(), perBit)
	return nil
}
