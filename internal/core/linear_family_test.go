package core_test

import (
	"testing"

	"ev8pred/internal/core"
	"ev8pred/internal/history"
	"ev8pred/internal/rng"
	"ev8pred/internal/sweep"
)

// TestLinearIndexSweepFamilies holds the linear index of every point of the
// 2bcg/history and 2bcg/size sweep families to the reference formula.
func TestLinearIndexSweepFamilies(t *testing.T) {
	r := rng.New(47, 0)
	infos := make([]history.Info, 500)
	for i := range infos {
		infos[i] = history.Info{PC: r.Uint64(), Hist: r.Uint64(), Path: [3]uint64{r.Uint64(), r.Uint64(), r.Uint64()}}
	}
	families := []struct {
		param  string
		values []int
	}{
		{"history", []int{4, 8, 13, 15, 17, 19, 21, 23, 25, 27, 32, 40, 48, 64}},
		{"size", []int{4, 10, 12, 14, 16, 18, 20, 22}},
	}
	for _, fam := range families {
		f, err := sweep.FamilyFactory("2bcg", fam.param)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range fam.values {
			pr, err := f(x)
			if err != nil {
				t.Fatal(err)
			}
			p := pr.(*core.Predictor)
			cfg := p.Config()
			for i := range infos {
				if got, want := p.Lookup(&infos[i]).Idx, core.RefIndex(cfg, &infos[i]); got != want {
					t.Fatalf("%s: Idx %v of %+v, want %v", p.Name(), got, infos[i], want)
				}
			}
		}
	}
}
