// Frontend: drive the complete EV8 PC-address generator (§2) — the
// conditional predictor backed by the jump predictor, the return-address
// stack and the line predictor — and turn the event counts into the
// paper's opening argument: with a 14+-cycle misprediction penalty on an
// 8-wide machine, conditional-predictor quality dominates fetch-limited
// performance.
package main

import (
	"fmt"
	"log"

	"ev8pred"
)

func main() {
	prof, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		log.Fatal(err)
	}
	const instructions = 3_000_000
	opts := ev8pred.Options{Mode: ev8pred.ModeEV8()}
	model := ev8pred.PerfEV8Typical() // 20-cycle redirect penalty

	run := func(name string, p ev8pred.Predictor) {
		r, err := ev8pred.RunFrontEndBenchmark(p, prof, instructions, opts)
		if err != nil {
			log.Fatal(err)
		}
		est, err := ev8pred.EstimatePerf(model, r)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s cond misp/KI %6.2f | jump acc %5.1f%% | RAS acc %5.1f%% | line acc %5.1f%% | est IPC %.2f\n",
			name, r.MispKI(), 100*r.JumpAccuracy, 100*r.RASAccuracy, 100*r.LineAccuracy, est.IPC)
	}

	fmt.Printf("workload: %s (%d instructions)\n\n", prof.Name, instructions)
	run("oracle", nil) // perfect conditional direction prediction
	run("EV8 352Kb", ev8pred.NewEV8())
	bim, err := ev8pred.NewBimodal(4 * 1024)
	if err != nil {
		log.Fatal(err)
	}
	run("bimodal 8Kb", bim)

	fmt.Println("\nthe jump predictor, return-address stack and line predictor are identical")
	fmt.Println("in all three rows; only the conditional predictor changes. That gap is §1's")
	fmt.Println("motivation for spending 352 Kbits on conditional branch prediction.")
}
