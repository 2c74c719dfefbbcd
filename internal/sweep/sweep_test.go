package sweep

import (
	"context"
	"strings"
	"testing"

	"ev8pred/internal/core"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

func profs(t *testing.T, names ...string) []workload.Profile {
	t.Helper()
	out := make([]workload.Profile, 0, len(names))
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func TestRunValidation(t *testing.T) {
	_, err := RunPool(func(int) (predictor.Predictor, error) { return gshare.New(64, 6) },
		nil, nil, 0, sim.Options{}, sim.PoolOptions{})
	if err == nil {
		t.Error("empty parameter list accepted")
	}
}

func TestHistoryLengthSweepShape(t *testing.T) {
	// The §5.3 claim in miniature: for a 64K-entry gshare (log2 = 16),
	// some history length > 5 beats the very short ones, and the curve
	// is not monotone garbage (best <= worst).
	pts, err := RunPool(func(h int) (predictor.Predictor, error) {
		return gshare.New(64*1024, h)
	}, []int{2, 8, 14, 20}, profs(t, "li", "perl"), 400_000, sim.Options{Mode: frontend.ModeGhist()}, sim.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	best := Best(pts)
	if best.X == 2 {
		t.Errorf("best history length = 2; history should help on li/perl")
	}
	for _, p := range pts {
		if p.Mean < best.Mean {
			t.Error("Best did not return the minimum")
		}
	}
}

func TestLongHistoryBeatsLog2SizeFor2BcGskew(t *testing.T) {
	// §5.3 / Figure 6: for the large 2Bc-gskew, history longer than
	// log2(table size) is beneficial. Compare the preset best lengths
	// against the truncated ones on a correlation-heavy pair.
	benchSet := profs(t, "li", "gcc")
	opts := sim.Options{Mode: frontend.ModeGhist()}
	long, err := sim.RunCells(context.Background(), sim.SuiteCells(func() (predictor.Predictor, error) {
		return core.New(core.Config256K())
	}, benchSet, opts), 400_000, sim.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	short, err := sim.RunCells(context.Background(), sim.SuiteCells(func() (predictor.Predictor, error) {
		return core.New(core.Config256KShortHist())
	}, benchSet, opts), 400_000, sim.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Mean(long) > sim.Mean(short) {
		t.Errorf("best-length mean %.3f worse than log2-size mean %.3f",
			sim.Mean(long), sim.Mean(short))
	}
}

// TestSweepParallelSerialByteIdentical: the rendered sweep table must be
// byte-identical whether the (value x benchmark) cells run serially or on
// a crowded pool.
func TestSweepParallelSerialByteIdentical(t *testing.T) {
	render := func(workers int) string {
		pts, err := RunPool(func(h int) (predictor.Predictor, error) {
			return gshare.New(16*1024, h)
		}, []int{6, 10, 14}, profs(t, "li", "go"), 150_000,
			sim.Options{Mode: frontend.ModeGhist()}, sim.PoolOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return Table("determinism sweep", "histlen", pts).String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("Workers 1 vs 8 sweep tables differ:\n--- serial ---\n%s--- parallel ---\n%s",
			serial, parallel)
	}
}

func TestTableRendering(t *testing.T) {
	pts, err := RunPool(func(h int) (predictor.Predictor, error) {
		return gshare.New(4096, h)
	}, []int{4, 8}, profs(t, "m88ksim"), 100_000, sim.Options{}, sim.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := Table("history sweep", "histlen", pts)
	out := tbl.String()
	for _, want := range []string{"histlen", "m88ksim", "MEAN", "best histlen"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if tbl.Rows() != 2 {
		t.Errorf("rows = %d", tbl.Rows())
	}
}

func TestEmptyTable(t *testing.T) {
	tbl := Table("t", "x", nil)
	if tbl.Rows() != 0 {
		t.Error("empty sweep should render an empty table")
	}
}
