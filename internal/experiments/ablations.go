package experiments

import (
	"ev8pred/internal/core"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/agree"
	"ev8pred/internal/predictor/bimodal"
	"ev8pred/internal/predictor/cascade"
	"ev8pred/internal/predictor/dhlf"
	"ev8pred/internal/predictor/egskew"
	"ev8pred/internal/predictor/gas"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/predictor/hybrid"
	"ev8pred/internal/predictor/local"
	"ev8pred/internal/predictor/perceptron"
	"ev8pred/internal/report"
	"ev8pred/internal/sim"
)

func init() {
	register(Experiment{
		ID: "ablations",
		Title: "Ablations: design choices the paper argues in prose " +
			"(update policy, scheme roster, update timing)",
		Shape: "partial update <= total update; 2Bc-gskew <= e-gskew <= gshare; " +
			"immediate ~ commit-delayed update",
		Run: runAblations,
	})
}

// runAblations covers the design arguments made in prose rather than in a
// numbered figure: the §4.2 partial-update benefit, the broader predictor
// roster of §3/§8.2 (including the local/hybrid predictors the EV8 could
// not use and the perceptron of §9), and the §8.1.1 immediate-vs-commit
// update validation.
func runAblations(cfg Config) (*report.Table, error) {
	ghist := sim.Options{Mode: frontend.ModeGhist()}
	rows := []column{
		{"2Bc-gskew 512Kb partial-update", ghist,
			func() (predictor.Predictor, error) { return core.New(core.Config512K()) }},
		{"2Bc-gskew 512Kb total-update", ghist,
			func() (predictor.Predictor, error) {
				c := core.Config512K()
				c.PartialUpdate = false
				c.Name = "2Bc-gskew-512Kbit-total"
				return core.New(c)
			}},
		{"2Bc-gskew 512Kb delayed-update(64)",
			sim.Options{Mode: frontend.ModeGhist(), UpdateDelay: 64},
			func() (predictor.Predictor, error) { return core.New(core.Config512K()) }},
		{"e-gskew 3x64K (384Kb)", ghist,
			func() (predictor.Predictor, error) { return egskew.New(64*1024, 21, true) }},
		{"e-gskew 3x64K total-update", ghist,
			func() (predictor.Predictor, error) { return egskew.New(64*1024, 21, false) }},
		{"gshare 256K (512Kb)", ghist,
			func() (predictor.Predictor, error) { return gshare.New(256*1024, 18) }},
		{"GAs h12/a6 (512Kb)", ghist,
			func() (predictor.Predictor, error) { return gas.New(12, 6) }},
		{"agree 64K+128K (384Kb)", ghist,
			func() (predictor.Predictor, error) { return agree.New(64*1024, 128*1024, 17) }},
		{"bimodal 256K (512Kb)", ghist,
			func() (predictor.Predictor, error) { return bimodal.New(256 * 1024) }},
		{"local 4Kx16b + 64K PHT", ghist,
			func() (predictor.Predictor, error) { return local.New(4*1024, 16) }},
		{"21264-style hybrid (local+gshare)", ghist,
			func() (predictor.Predictor, error) {
				l, err := local.New(1024, 10)
				if err != nil {
					return nil, err
				}
				g, err := gshare.New(4*1024, 12)
				if err != nil {
					return nil, err
				}
				return hybrid.New(l, g, 4*1024)
			}},
		{"perceptron 1Kx28w", ghist,
			func() (predictor.Predictor, error) { return perceptron.New(1024, 27) }},
		{"DHLF gshare 256K (512Kb)", ghist,
			func() (predictor.Predictor, error) { return dhlf.New(256*1024, 24, 16384) }},
		{"cascade gshare->perceptron", ghist,
			func() (predictor.Predictor, error) {
				g, err := gshare.New(128*1024, 17)
				if err != nil {
					return nil, err
				}
				pc, err := perceptron.New(1024, 27)
				if err != nil {
					return nil, err
				}
				return cascade.New(g, pc, cascade.Config{MinConfidence: 14})
			}},
	}
	t := report.New("Ablations: mean misp/KI across the benchmark suite",
		"configuration", "mean misp/KI", "size Kbits")
	series, err := runColumns(cfg, rows)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		rs := series[r.name]
		size := 0
		if len(rs) > 0 {
			size = rs[0].SizeBits / 1024
		}
		t.AddRowf(r.name, sim.Mean(rs), size)
	}
	if err := addTrafficNote(t, cfg); err != nil {
		return nil, err
	}
	return t, nil
}

// addTrafficNote quantifies the §4.3 hardware argument: counter-array
// write traffic under partial vs total update on one benchmark.
func addTrafficNote(t *report.Table, cfg Config) error {
	if len(cfg.Benchmarks) == 0 {
		return nil
	}
	prof := cfg.Benchmarks[0]
	// Both update policies see the same stream: one ensemble pass, its
	// factories keeping the built predictors for their write counts.
	var ps [2]*core.Predictor // partial, total
	factories := make([]sim.Factory, len(ps))
	for i := range ps {
		factories[i] = func() (predictor.Predictor, error) {
			c := core.Config512K()
			c.PartialUpdate = i == 0
			ps[i] = core.MustNew(c)
			return ps[i], nil
		}
	}
	if _, err := sim.RunEnsembleBenchmark(factories, prof, cfg.Instructions, sim.Options{Mode: frontend.ModeGhist()}); err != nil {
		return err
	}
	writes := func(p *core.Predictor) int64 {
		pw, hw, _ := p.Traffic()
		return pw + hw
	}
	partial, total := writes(ps[0]), writes(ps[1])
	t.AddNote("§4.3 array-write traffic on %s: partial update %d writes vs total update %d (%.0f%% saved)",
		prof.Name, partial, total, 100*(1-float64(partial)/float64(total)))
	return nil
}
