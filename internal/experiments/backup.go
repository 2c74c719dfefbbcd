package experiments

import (
	"ev8pred/internal/core"
	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/cascade"
	"ev8pred/internal/predictor/perceptron"
	"ev8pred/internal/report"
	"ev8pred/internal/sim"
)

func init() {
	register(Experiment{
		ID: "backup",
		Title: "Backup predictor hierarchy: EV8 + late perceptron backup vs " +
			"brute-force scaling (§9)",
		Shape: "the small cascade recovers most (or more) of what the 23x-larger " +
			"4x1M predictor buys over the EV8 alone",
		Run: runBackup,
	})
}

// runBackup makes the paper's closing argument executable: instead of the
// "limited return" brute-force 4x1M predictor (Figure 10), add a backup
// predictor with a different information-processing style — the §9
// suggestion, naming the perceptron — behind the EV8, overriding it late
// only where experience and confidence justify the redirect bubble.
func runBackup(cfg Config) (*report.Table, error) {
	t := report.New("Backup hierarchy: misp/KI (and override rate of the cascade)",
		"benchmark", "EV8 352Kb", "EV8+perceptron 616Kb", "2Bc-gskew 4x1M (8Mb)",
		"overrides/KI")
	opts := sim.Options{Mode: frontend.ModeEV8()}
	// Two jobs per benchmark: the EV8 and the cascade as one ensemble
	// (its factory keeps the cascade for the override count), and the
	// 4x1M predictor, which reads another information vector.
	type res struct {
		rs        []sim.Result
		overrides int64
	}
	const njob = 2
	fns := make([]func() (res, error), 0, len(cfg.Benchmarks)*njob)
	for _, prof := range cfg.Benchmarks {
		fns = append(fns,
			func() (res, error) {
				var casc *cascade.Cascade
				rs, err := sim.RunEnsembleBenchmark([]sim.Factory{
					func() (predictor.Predictor, error) { return ev8.New(ev8.DefaultConfig()) },
					func() (predictor.Predictor, error) {
						casc = cascade.MustNew(ev8.MustNew(ev8.DefaultConfig()), perceptron.MustNew(1024, 27),
							cascade.Config{MinConfidence: 14, Name: "EV8+perceptron"})
						return casc, nil
					},
				}, prof, cfg.Instructions, opts)
				if err != nil {
					return res{}, err
				}
				overrides, _ := casc.Overrides()
				return res{rs: rs, overrides: overrides}, nil
			},
			func() (res, error) {
				r, err := sim.RunBenchmark(core.MustNew(core.Config4M()), prof, cfg.Instructions,
					sim.Options{Mode: frontend.ModeGhist()})
				return res{rs: []sim.Result{r}}, err
			})
	}
	rs, err := jobs(cfg, fns)
	if err != nil {
		return nil, err
	}
	for bi, prof := range cfg.Benchmarks {
		pair, brute := rs[bi*njob], rs[bi*njob+1].rs[0]
		alone, withBackup := pair.rs[0], pair.rs[1]
		overKI := 0.0
		if withBackup.Instructions > 0 {
			overKI = 1000 * float64(pair.overrides) / float64(withBackup.Instructions)
		}
		t.AddRowf(prof.Name, alone.MispKI(), withBackup.MispKI(), brute.MispKI(), overKI)
	}
	t.AddNote("cascade = 352Kb EV8 + 1Kx28w perceptron (224Kb) + 4K override counters (8Kb); overrides are late redirects, far cheaper than full mispredictions")
	return t, nil
}
