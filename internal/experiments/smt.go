package experiments

import (
	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/local"
	"ev8pred/internal/report"
	"ev8pred/internal/sim"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

func init() {
	register(Experiment{
		ID: "smt",
		Title: "SMT: per-thread vs shared global history, and local-history " +
			"interference (§3)",
		Shape: "EV8 with a shared history context worse than with per-thread histories " +
			"on every benchmark; 1T to 4T moves both predictors either way",
		Run: runSMT,
	})
}

// runSMT makes §3's arguments executable: four copies of each benchmark
// are interleaved (round-robin, 800-instruction quantum) and run under
// (a) the EV8 with one history context per thread (the hardware design),
// (b) the EV8 with one SHARED history context polluted by all threads,
// and (c) a local-history predictor, whose history and pattern tables are
// both polluted ("can be disastrous", §3). Single-thread columns anchor
// the comparison.
func runSMT(cfg Config) (*report.Table, error) {
	const threads = 4
	const quantum = 800
	perThreadInstr := cfg.Instructions / threads
	if perThreadInstr < 1 {
		perThreadInstr = cfg.Instructions
	}

	mkSMT := func(prof workload.Profile, shared bool) (trace.Source, error) {
		srcs := make([]trace.Source, threads)
		for i := range srcs {
			// Distinct seeds: the threads are independent programs of
			// the same character (the §3 "independent threads compete
			// for predictor table entries" case). Their address spaces
			// overlap, as processes sharing a predictor's view do.
			tp := prof
			tp.Seed += uint64(i) * 0x9e37
			g, err := workload.New(tp, perThreadInstr)
			if err != nil {
				return nil, err
			}
			srcs[i] = g
		}
		var src trace.Source = workload.NewInterleaved(srcs, quantum)
		if shared {
			src = &trace.ForceThread{Src: src}
		}
		return src, nil
	}

	t := report.New("SMT: misp/KI under 4-thread interleaving",
		"benchmark", "EV8 1T", "EV8 4T per-thread", "EV8 4T shared-hist",
		"local 1T", "local 4T")
	mode := sim.Options{Mode: frontend.ModeEV8()}
	// Three passes per benchmark, each a job fanned through the pool: the
	// EV8 and the local predictor share the single-thread stream and the
	// per-thread interleaving; the shared-history EV8 runs alone.
	pair := []sim.Factory{
		func() (predictor.Predictor, error) { return ev8.New(ev8.DefaultConfig()) },
		func() (predictor.Predictor, error) { return local.New(4*1024, 16) },
	}
	const npass = 3
	fns := make([]func() ([]sim.Result, error), 0, len(cfg.Benchmarks)*npass)
	for _, prof := range cfg.Benchmarks {
		fns = append(fns,
			func() ([]sim.Result, error) {
				return sim.RunEnsembleBenchmark(pair, prof, perThreadInstr, mode)
			},
			func() ([]sim.Result, error) {
				src, err := mkSMT(prof, false)
				if err != nil {
					return nil, err
				}
				return sim.RunEnsemble(pair, src, mode)
			},
			func() ([]sim.Result, error) {
				src, err := mkSMT(prof, true)
				if err != nil {
					return nil, err
				}
				r, err := sim.Run(ev8.MustNew(ev8.DefaultConfig()), src,
					sim.Options{Mode: frontend.ModeEV8(), LenientFlow: true})
				return []sim.Result{r}, err
			})
	}
	rs, err := jobs(cfg, fns)
	if err != nil {
		return nil, err
	}
	for bi, prof := range cfg.Benchmarks {
		single, perThread, shared := rs[bi*npass], rs[bi*npass+1], rs[bi*npass+2]
		t.AddRowf(prof.Name, single[0].MispKI(), perThread[0].MispKI(),
			shared[0].MispKI(), single[1].MispKI(), perThread[1].MispKI())
	}
	t.AddNote("4 threads run independent same-character programs (distinct seeds, overlapping address spaces)")
	t.AddNote("1T columns run Instructions/4 on a cold predictor, 4T columns four such threads: " +
		"cold-start misses weigh four times as much in 1T")
	return t, nil
}
