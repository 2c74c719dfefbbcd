package experiments

import (
	"fmt"
	"io"

	"ev8pred/internal/core"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/report"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Table 1: Characteristics of the Alpha EV8 branch predictor",
		Shape: "BIM 16K/16K/4, G0 64K/32K/13, G1 64K/64K/21, Meta 64K/32K/15; 208+144=352 Kbits",
		Run:   runTable1,
	})
	register(Experiment{
		ID:    "table2",
		Title: "Table 2: Benchmark characteristics",
		Shape: "static branch counts match the paper exactly; dynamic counts within 1.25x " +
			"of the paper's, except perl at ~1.8x fewer branches per KI",
		Run: runTable2,
	})
	register(Experiment{
		ID:    "table3",
		Title: "Table 3: Ratio lghist/ghist (branches represented per lghist bit)",
		Shape: "every ratio >= 1 and below the paper's: lghist compresses the synthetic " +
			"streams less than the paper's binaries",
		Run: runTable3,
	})
}

// runTable1 prints the Table 1 configuration from the implemented
// predictor (not from literals), so any drift between paper and code is
// visible.
func runTable1(cfg Config) (*report.Table, error) {
	c := core.ConfigEV8Size()
	p, err := core.New(c)
	if err != nil {
		return nil, err
	}
	t := report.New("Table 1: Alpha EV8 branch predictor characteristics",
		"bank", "prediction", "hysteresis", "history length")
	for b := core.BIM; b < core.NumBanks; b++ {
		bc := c.Banks[b]
		t.AddRow(b.String(),
			fmt.Sprintf("%dK", bc.Entries/1024),
			fmt.Sprintf("%dK", bc.HystEntries/1024),
			fmt.Sprintf("%d", bc.HistLen))
	}
	t.AddNote("total %d Kbits = %d Kbits prediction + %d Kbits hysteresis",
		p.SizeBits()/1024, p.PredictionBits()/1024, p.HysteresisBits()/1024)
	return t, nil
}

// runTable2 measures the synthetic benchmark suite and prints it next to
// the paper's Table 2 values.
func runTable2(cfg Config) (*report.Table, error) {
	paperDyn := map[string]int{
		"compress": 12044, "gcc": 16035, "go": 11285, "ijpeg": 8894,
		"li": 16254, "m88ksim": 9706, "perl": 13263, "vortex": 12757,
	}
	paperStatic := map[string]int{
		"compress": 46, "gcc": 12086, "go": 3710, "ijpeg": 904,
		"li": 251, "m88ksim": 409, "perl": 273, "vortex": 2239,
	}
	t := report.New("Table 2: Benchmark characteristics",
		"benchmark", "dyn br/KI (meas)", "dyn br/KI (paper)",
		"static (meas)", "static (program)", "static (paper)", "taken%")
	type row struct {
		stats *trace.Stats
		sites int
	}
	fns := make([]func() (row, error), len(cfg.Benchmarks))
	for i, prof := range cfg.Benchmarks {
		fns[i] = func() (row, error) {
			g, err := workload.New(prof, cfg.Instructions)
			if err != nil {
				return row{}, err
			}
			s, err := trace.Measure(g, 0)
			return row{stats: s, sites: g.StaticSites()}, err
		}
	}
	rows, err := jobs(cfg, fns)
	if err != nil {
		return nil, err
	}
	for i, prof := range cfg.Benchmarks {
		s := rows[i].stats
		paperKI := float64(paperDyn[prof.Name]) / 100.0 // per 100M instr -> per KI
		t.AddRowf(prof.Name, s.BranchesPerKI(), paperKI,
			s.StaticBranches, rows[i].sites, paperStatic[prof.Name],
			100*s.TakenRate())
	}
	t.AddNote("paper dynamic counts are x1000 branches per 100M instructions, shown as br/KI")
	return t, nil
}

// runTable3 measures the average number of conditional branches summarized
// by one lghist bit per benchmark.
func runTable3(cfg Config) (*report.Table, error) {
	paper := map[string]float64{
		"compress": 1.24, "gcc": 1.57, "go": 1.12, "ijpeg": 1.20,
		"li": 1.55, "m88ksim": 1.53, "perl": 1.32, "vortex": 1.59,
	}
	t := report.New("Table 3: Ratio lghist/ghist",
		"benchmark", "branches per lghist bit (meas)", "paper")
	fns := make([]func() (float64, error), len(cfg.Benchmarks))
	for i, prof := range cfg.Benchmarks {
		fns[i] = func() (float64, error) {
			g, err := workload.New(prof, cfg.Instructions)
			if err != nil {
				return 0, err
			}
			threads := frontend.Threads{Mode: frontend.ModeEV8()}
			buf := make([]trace.Branch, 1024)
			infos := make([]history.Info, len(buf))
			log := frontend.NewBlockLog(len(buf))
			for {
				n, err := g.NextBatch(buf)
				log.Reset()
				if _, err := threads.Walk(buf[:n], infos, &log); err != nil {
					return 0, err
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					return 0, err
				}
			}
			_, lgBits, conds := threads.Totals()
			if lgBits == 0 {
				return 0, nil
			}
			return float64(conds) / float64(lgBits), nil
		}
	}
	ratios, err := jobs(cfg, fns)
	if err != nil {
		return nil, err
	}
	for i, prof := range cfg.Benchmarks {
		t.AddRowf(prof.Name, ratios[i], paper[prof.Name])
	}
	return t, nil
}
