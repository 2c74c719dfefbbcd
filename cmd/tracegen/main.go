// Command tracegen generates synthetic benchmark traces and writes them in
// the library's binary trace format (optionally gzip-compressed), printing
// Table 2-style characteristics for each.
//
// Usage:
//
//	tracegen [-benchmarks all|gcc,go,...] [-instructions N] [-dir out/] [-gzip] [-format 1|2]
package main

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ev8pred/internal/cliflag"
	"ev8pred/internal/report"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run executes the tool against the given arguments.
func run(args []string, out io.Writer) error {
	cmd := cliflag.New("tracegen", out, os.Stderr)
	var (
		benchmarks   = cmd.String("benchmarks", "all", "comma-separated benchmarks or 'all'")
		instructions = cmd.PositiveInt64("instructions", 10_000_000, "instructions per benchmark")
		dir          = cmd.String("dir", ".", "output directory")
		useGzip      = cmd.Bool("gzip", false, "gzip-compress the trace files")
		format       = cmd.Int("format", trace.DefaultVersion,
			"trace format version: 2 adds per-chunk CRCs and a counted footer, 1 is the legacy bare stream")
	)
	if ok, err := cmd.Parse(args); !ok {
		return err
	}
	defer cmd.Close()

	profs, err := cliflag.Benchmarks(*benchmarks)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}

	tbl := report.New("generated traces",
		"benchmark", "file", "records", "dyn br/KI", "static", "taken%", "bytes")
	for _, prof := range profs {
		name := prof.Name + ".ev8t"
		if *useGzip {
			name += ".gz"
		}
		path := filepath.Join(*dir, name)
		n, stats, err := writeTrace(path, prof, *instructions, *useGzip, *format)
		if err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		tbl.AddRowf(prof.Name, name, n, stats.BranchesPerKI(),
			stats.StaticBranches, 100*stats.TakenRate(), fi.Size())
	}
	return tbl.Fprint(out)
}

// writeTrace streams one benchmark to disk while accumulating statistics.
func writeTrace(path string, prof workload.Profile, instructions int64, useGzip bool, format int) (int64, *trace.Stats, error) {
	g, err := workload.New(prof, instructions)
	if err != nil {
		return 0, nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, nil, err
	}
	var w io.Writer = f
	var gz *gzip.Writer
	if useGzip {
		gz = gzip.NewWriter(f)
		w = gz
	}
	tw, err := trace.NewWriterVersion(w, format)
	if err != nil {
		f.Close()
		return 0, nil, err
	}
	stats := trace.NewStats()
	buf := make([]trace.Branch, 1024)
	for {
		n, err := g.NextBatch(buf)
		for _, b := range buf[:n] {
			stats.Add(b)
			if err := tw.Write(b); err != nil {
				f.Close()
				return tw.Count(), stats, err
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return tw.Count(), stats, err
		}
	}
	if err := tw.Flush(); err != nil {
		f.Close()
		return tw.Count(), stats, err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			f.Close()
			return tw.Count(), stats, err
		}
	}
	return tw.Count(), stats, f.Close()
}
