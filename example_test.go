package ev8pred_test

import (
	"fmt"
	"log"

	"ev8pred"
)

// The godoc examples run as tests: their outputs are deterministic
// because every workload and predictor is seeded.

// Example runs the EV8 predictor over a synthetic benchmark under its
// hardware information vector.
func Example() {
	p := ev8pred.NewEV8()
	prof, err := ev8pred.BenchmarkByName("m88ksim")
	if err != nil {
		log.Fatal(err)
	}
	r, err := ev8pred.RunBenchmark(p, prof, 1_000_000, ev8pred.Options{Mode: ev8pred.ModeEV8()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p.Name())
	fmt.Println("predicts well:", r.Accuracy() > 0.95)
	fmt.Println("bank conflicts:", p.BankConflicts())
	// Output:
	// EV8-352Kbit
	// predicts well: true
	// bank conflicts: 0
}

// ExampleNew2BcGskew builds the unconstrained 512 Kbit predictor of the
// paper's Figure 5 and checks its storage budget.
func ExampleNew2BcGskew() {
	p, err := ev8pred.New2BcGskew(ev8pred.Config512K())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p.Name(), p.SizeBits()/1024, "Kbits")
	// Output:
	// 2Bc-gskew-512Kbit 512 Kbits
}

// ExampleNewCascade assembles the §9 backup hierarchy: the EV8 predictor
// with a late perceptron override.
func ExampleNewCascade() {
	backup, err := ev8pred.NewPerceptron(1024, 27)
	if err != nil {
		log.Fatal(err)
	}
	c, err := ev8pred.NewCascade(ev8pred.NewEV8(), backup, 4096)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c.Name())
	// Output:
	// cascade(EV8-352Kbit->perceptron-1024x28w)
}

// ExampleRunFrontEnd drives the complete §2 PC-address generator and
// applies the paper's performance model.
func ExampleRunFrontEnd() {
	prof, err := ev8pred.BenchmarkByName("perl")
	if err != nil {
		log.Fatal(err)
	}
	src, err := ev8pred.NewWorkload(prof, 500_000)
	if err != nil {
		log.Fatal(err)
	}
	r, err := ev8pred.RunFrontEnd(ev8pred.NewEV8(), src,
		ev8pred.Options{Mode: ev8pred.ModeEV8()})
	if err != nil {
		log.Fatal(err)
	}
	est, err := ev8pred.EstimatePerf(ev8pred.PerfEV8(), r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("returns predicted by the RAS:", r.RASAccuracy > 0.99)
	fmt.Println("IPC within machine limits:", est.IPC > 0 && est.IPC <= 8)
	// Output:
	// returns predicted by the RAS: true
	// IPC within machine limits: true
}
