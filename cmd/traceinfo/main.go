// Command traceinfo inspects trace files written by tracegen (plain or
// gzip-compressed) and prints their characteristics.
//
// Usage:
//
//	traceinfo file.ev8t [file2.ev8t.gz ...]
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"ev8pred/internal/cliflag"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/report"
	"ev8pred/internal/trace"
)

const usage = "usage: traceinfo <file.ev8t> [...]"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "traceinfo:", err)
		os.Exit(1)
	}
}

// run inspects each trace file named in args and writes the summary
// table to out.
func run(args []string, out io.Writer) error {
	cmd := cliflag.New("traceinfo", out, os.Stderr)
	cmd.Usage = func() { fmt.Fprintln(cmd.Output(), usage) }
	if ok, err := cmd.Parse(args); !ok {
		return err
	}
	defer cmd.Close()
	paths := cmd.Args()
	if len(paths) == 0 {
		return errors.New(usage)
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

// inspect adds one row for the trace file at path. Each thread's records
// walk their own front end, as the simulator's do, and the row sums the
// threads' fetch blocks, lghist bits and conditional branches. A record
// that does not continue its thread's flow is an error.
func inspect(tbl *report.Table, path string) error {
	r, closer, err := trace.Open(path)
	if err != nil {
		return err
	}
	defer closer.Close()
	stats := trace.NewStats()
	threads := frontend.Threads{Mode: frontend.ModeEV8()}
	buf := make([]trace.Branch, 1024)
	infos := make([]history.Info, len(buf))
	log := frontend.NewBlockLog(len(buf))
	for {
		n, err := r.NextBatch(buf)
		log.Reset()
		if _, err := threads.Walk(buf[:n], infos, &log); err != nil {
			return err
		}
		for _, b := range buf[:n] {
			stats.Add(b)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	blocks, lgBits, conds := threads.Totals()
	perBit := 0.0
	if lgBits > 0 {
		perBit = float64(conds) / float64(lgBits)
	}
	tbl.AddRowf(path, stats.Instructions, stats.DynamicBranches,
		stats.Transfers, stats.StaticBranches, 100*stats.TakenRate(),
		stats.BranchesPerKI(), blocks, perBit)
	return nil
}
