package ev8pred_test

import (
	"testing"

	"ev8pred"
)

// The facade tests double as API-stability checks: everything a
// downstream user needs must be reachable from the root package.

func TestFacadeEV8(t *testing.T) {
	p := ev8pred.NewEV8()
	if p.SizeBits() != 352*1024 {
		t.Fatalf("EV8 size = %d bits", p.SizeBits())
	}
	prof, err := ev8pred.BenchmarkByName("li")
	if err != nil {
		t.Fatal(err)
	}
	r, err := ev8pred.RunBenchmark(p, prof, 300_000, ev8pred.Options{Mode: ev8pred.ModeEV8()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Branches == 0 || r.Accuracy() < 0.8 {
		t.Fatalf("implausible result: %v", r)
	}
	if p.BankConflicts() != 0 {
		t.Fatalf("%d bank conflicts", p.BankConflicts())
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	if got := len(ev8pred.Benchmarks()); got != 8 {
		t.Fatalf("%d benchmarks", got)
	}
	if _, err := ev8pred.BenchmarkByName("nonesuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestFacadeConstructorsValidate(t *testing.T) {
	if _, err := ev8pred.NewGshare(1000, 10); err == nil {
		t.Error("gshare accepted non-power-of-two entries")
	}
	if _, err := ev8pred.NewBimodal(0); err == nil {
		t.Error("bimodal accepted zero entries")
	}
	if _, err := ev8pred.NewYAGS(1024, 1024, 200); err == nil {
		t.Error("yags accepted oversized history")
	}
	if _, err := ev8pred.NewPerceptron(64, 0); err == nil {
		t.Error("perceptron accepted zero history")
	}
}

func TestFacadeHybridComposition(t *testing.T) {
	l, err := ev8pred.NewLocal(1024, 10)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ev8pred.NewGshare(4096, 12)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ev8pred.NewHybrid(l, g, 1024)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ev8pred.BenchmarkByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	r, err := ev8pred.RunBenchmark(h, prof, 200_000, ev8pred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy() < 0.85 {
		t.Errorf("tournament hybrid accuracy %.3f too low", r.Accuracy())
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	prof, err := ev8pred.BenchmarkByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	src, err := ev8pred.NewWorkload(prof, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	records, err := ev8pred.CollectTrace(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no records")
	}
	p, err := ev8pred.NewGshare(4096, 10)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ev8pred.Run(p, ev8pred.NewSliceSource(records), ev8pred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Branches == 0 {
		t.Fatal("replay produced no branches")
	}
}

func TestFacadeSMT(t *testing.T) {
	prof, err := ev8pred.BenchmarkByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]ev8pred.Source, 2)
	for i := range srcs {
		srcs[i], err = ev8pred.NewWorkload(prof, 100_000)
		if err != nil {
			t.Fatal(err)
		}
	}
	p := ev8pred.NewEV8()
	r, err := ev8pred.Run(p, ev8pred.NewInterleaved(srcs, 500), ev8pred.Options{Mode: ev8pred.ModeEV8()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Branches == 0 {
		t.Fatal("SMT run produced no branches")
	}
	if p.BankConflicts() != 0 {
		t.Fatalf("%d bank conflicts under SMT", p.BankConflicts())
	}
}

func TestFacadeAllConstructors(t *testing.T) {
	// Every public constructor must build a working predictor that can
	// run a short benchmark — the facade's API contract.
	prof, err := ev8pred.BenchmarkByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	constructors := map[string]func() (ev8pred.Predictor, error){
		"bimodal":    func() (ev8pred.Predictor, error) { return ev8pred.NewBimodal(1024) },
		"gshare":     func() (ev8pred.Predictor, error) { return ev8pred.NewGshare(1024, 10) },
		"gas":        func() (ev8pred.Predictor, error) { return ev8pred.NewGAs(6, 5) },
		"egskew":     func() (ev8pred.Predictor, error) { return ev8pred.NewEGskew(1024, 10, true) },
		"bimode":     func() (ev8pred.Predictor, error) { return ev8pred.NewBimode(1024, 256, 10) },
		"yags":       func() (ev8pred.Predictor, error) { return ev8pred.NewYAGS(1024, 1024, 10) },
		"agree":      func() (ev8pred.Predictor, error) { return ev8pred.NewAgree(1024, 1024, 10) },
		"local":      func() (ev8pred.Predictor, error) { return ev8pred.NewLocal(1024, 10) },
		"perceptron": func() (ev8pred.Predictor, error) { return ev8pred.NewPerceptron(256, 12) },
		"dhlf":       func() (ev8pred.Predictor, error) { return ev8pred.NewDHLF(1024, 12, 256) },
		"hybrid": func() (ev8pred.Predictor, error) {
			l, err := ev8pred.NewLocal(256, 8)
			if err != nil {
				return nil, err
			}
			g, err := ev8pred.NewGshare(1024, 10)
			if err != nil {
				return nil, err
			}
			return ev8pred.NewHybrid(l, g, 256)
		},
		"cascade": func() (ev8pred.Predictor, error) {
			backup, err := ev8pred.NewPerceptron(256, 12)
			if err != nil {
				return nil, err
			}
			return ev8pred.NewCascade(ev8pred.NewEV8(), backup, 0)
		},
		"2bcgskew": func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.Config512K()) },
		"ev8-config": func() (ev8pred.Predictor, error) {
			return ev8pred.NewEV8WithConfig(ev8pred.EV8Config{PartialUpdate: true})
		},
	}
	for name, mk := range constructors {
		p, err := mk()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		r, err := ev8pred.RunBenchmark(p, prof, 60_000, ev8pred.Options{Mode: ev8pred.ModeGhist()})
		if err != nil {
			t.Errorf("%s: run: %v", name, err)
			continue
		}
		if r.Branches == 0 || r.Accuracy() < 0.5 {
			t.Errorf("%s: degenerate result %+v", name, r)
		}
	}
}
