package experiments

import (
	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/perf"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/bimodal"
	"ev8pred/internal/report"
	"ev8pred/internal/sim"
)

func init() {
	register(Experiment{
		ID: "perf",
		Title: "Performance model: fetch-level IPC estimate with the EV8 " +
			"predictor vs a small bimodal vs an oracle (§1 motivation)",
		Shape: "oracle >= EV8 >> bimodal; the EV8 predictor recovers most of the " +
			"oracle/bimodal IPC gap",
		Run: runPerf,
	})
}

// runPerf runs the complete front end (conditional predictor + jump
// predictor + RAS + line predictor) and applies the §1/§2 cost model: a
// 14-cycle minimum misprediction penalty on an 8-wide, 2-blocks-per-cycle
// machine. It is the paper's opening argument made quantitative: at these
// penalties, conditional-predictor quality dominates fetch performance.
func runPerf(cfg Config) (*report.Table, error) {
	model := perf.EV8Typical()
	t := report.New("Performance estimate (fetch-level model, 20-cycle redirect penalty)",
		"benchmark", "IPC oracle", "IPC EV8", "IPC bimodal 8Kb",
		"EV8/bimodal speedup", "EV8 of oracle %")
	type variant struct {
		name string
		mk   func() (predictor.Predictor, error)
	}
	variants := []variant{
		{"oracle", func() (predictor.Predictor, error) { return nil, nil }},
		{"ev8", func() (predictor.Predictor, error) { return ev8.New(ev8.DefaultConfig()) }},
		{"bimodal", func() (predictor.Predictor, error) { return bimodal.New(4 * 1024) }},
	}
	// One job per (benchmark, variant): each is an independent front-end
	// run with its own tracker, PC generator and line predictor.
	fns := make([]func() (perf.Report, error), 0, len(cfg.Benchmarks)*len(variants))
	for _, prof := range cfg.Benchmarks {
		for _, v := range variants {
			fns = append(fns, func() (perf.Report, error) {
				p, err := v.mk()
				if err != nil {
					return perf.Report{}, err
				}
				r, err := sim.RunFrontEndBenchmark(p, prof, cfg.Instructions,
					sim.Options{Mode: frontend.ModeEV8()})
				if err != nil {
					return perf.Report{}, err
				}
				return model.Estimate(perf.Inputs{
					Instructions: r.Instructions,
					Blocks:       r.Blocks,
					PCGen:        r.PCGen,
					LineMisses:   r.LineMisses,
				})
			})
		}
	}
	reports, err := jobs(cfg, fns)
	if err != nil {
		return nil, err
	}
	for bi, prof := range cfg.Benchmarks {
		oracle, ev8r, bim := reports[bi*3], reports[bi*3+1], reports[bi*3+2]
		t.AddRowf(prof.Name, oracle.IPC, ev8r.IPC, bim.IPC,
			perf.Speedup(ev8r, bim), 100*ev8r.IPC/oracle.IPC)
	}
	t.AddNote("oracle = perfect conditional direction prediction; jump/RAS/line predictors are real in all variants")
	return t, nil
}
