package sim

import (
	"context"
	"testing"

	"ev8pred/internal/cache"
	"ev8pred/internal/core"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/workload"
)

// BenchmarkRunCellsWarm times an all-hit job against a pre-warmed store:
// three values of the 2Bc-gskew history sweep over four benchmarks. Each
// iteration builds its cells afresh, as a served job compiles its spec,
// so every iteration pays for keying its cells.
func BenchmarkRunCellsWarm(b *testing.B) {
	const instr = 20_000
	profs := workload.Benchmarks()[:4]
	build := func() []Cell {
		var cells []Cell
		for _, h := range []int{13, 17, 21} {
			f := func() (predictor.Predictor, error) {
				c := core.Config512K()
				c.Banks[core.G1].HistLen = h
				c.Banks[core.Meta].HistLen = h * 3 / 4
				c.Banks[core.G0].HistLen = h * 2 / 3
				return core.New(c)
			}
			cells = append(cells, SuiteCells(f, profs, Options{Mode: frontend.ModeGhist()})...)
		}
		return cells
	}
	store, err := cache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	pool := PoolOptions{Cache: store}
	ctx := context.Background()
	if _, err := RunCells(ctx, build(), instr, pool); err != nil {
		b.Fatal(err)
	}
	_, cold, _, _ := store.Counts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCells(ctx, build(), instr, pool); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, misses, _, _ := store.Counts(); misses != cold {
		b.Fatalf("warm iterations missed the store %d times", misses-cold)
	}
}
