package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// cancelTestCells builds a small fan-out of gshare cells over two
// benchmarks — enough structure for both the per-cell and the grouped
// (ensemble) schedules.
func cancelTestCells(t *testing.T, n int) []Cell {
	t.Helper()
	profs := workload.Benchmarks()[:2]
	factory := func() (predictor.Predictor, error) { return gshare.New(1<<14, 12) }
	cells := make([]Cell, 0, n)
	for i := 0; len(cells) < n; i++ {
		cells = append(cells, Cell{Factory: factory, Profile: profs[i%len(profs)]})
	}
	return cells
}

// TestRunCellsCanceledContext pins mid-stream cancellation: a context
// canceled before (or during) the fan-out fails the run with an error
// wrapping ErrCanceled or context.Canceled — never a silently short
// Result.
func TestRunCellsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the very first stream poll must trip
	_, err := RunCells(ctx, cancelTestCells(t, 3), 2_000_000, PoolOptions{Workers: 1})
	if err == nil {
		t.Fatal("RunCells with canceled context returned nil error")
	}
	if !errors.Is(err, ErrCanceled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v wraps neither sim.ErrCanceled nor context.Canceled", err)
	}
}

// TestRunCellsCanceledEnsemble is the same contract on the grouped
// single-pass ensemble schedule (4 cells over one worker group).
func TestRunCellsCanceledEnsemble(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCells(ctx, cancelTestCells(t, 4), 2_000_000,
		PoolOptions{Workers: 1})
	if err == nil {
		t.Fatal("grouped RunCells with canceled context returned nil error")
	}
	if !errors.Is(err, ErrCanceled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v wraps neither sim.ErrCanceled nor context.Canceled", err)
	}
}

// TestCancelSourcePassesBatchThrough pins that the wrapper hands each
// NextBatch call to the wrapped source whole: the source sees the
// caller's buffer, so fill sizes — and with them the MaxBranches stop
// point — are those of an unwrapped run.
func TestCancelSourcePassesBatchThrough(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := &sizeRecorder{src: workload.MustNew(workload.Benchmarks()[0], 100_000)}
	wrapped := sourceWithCancel(ctx, inner)
	if wrapped == trace.Source(inner) {
		t.Fatal("cancelable context did not wrap the source")
	}
	buf := make([]trace.Branch, 100)
	for _, size := range []int{1, 7, 100} {
		if n, err := wrapped.NextBatch(buf[:size]); n != size || err != nil {
			t.Fatalf("NextBatch(%d) = (%d, %v)", size, n, err)
		}
	}
	if want := []int{1, 7, 100}; !reflect.DeepEqual(inner.sizes, want) {
		t.Errorf("wrapped source saw fills %v, want %v", inner.sizes, want)
	}
}

// sizeRecorder records the buffer size of every NextBatch call.
type sizeRecorder struct {
	src   trace.Source
	sizes []int
}

func (r *sizeRecorder) NextBatch(dst []trace.Branch) (int, error) {
	r.sizes = append(r.sizes, len(dst))
	return r.src.NextBatch(dst)
}

// TestCancelSourceBackgroundNoWrap pins the zero-cost path: a context
// that can never be canceled must not wrap the source at all.
func TestCancelSourceBackgroundNoWrap(t *testing.T) {
	g := workload.MustNew(workload.Benchmarks()[0], 1000)
	if got := sourceWithCancel(context.Background(), g); got != trace.Source(g) {
		t.Error("background context wrapped the source")
	}
	if got := sourceWithCancel(nil, g); got != trace.Source(g) { //nolint:staticcheck // nil ctx contract under test
		t.Error("nil context wrapped the source")
	}
}

// TestCancelSourceIdenticalRecords pins byte-identical pass-through: a
// wrapped-but-never-canceled stream yields exactly the records of the
// bare stream.
func TestCancelSourceIdenticalRecords(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prof := workload.Benchmarks()[0]
	bare, err := trace.Collect(workload.MustNew(prof, 50_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := trace.Collect(sourceWithCancel(ctx, workload.MustNew(prof, 50_000)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bare) != len(wrapped) {
		t.Fatalf("wrapped stream has %d records, bare %d", len(wrapped), len(bare))
	}
	for i := range bare {
		if bare[i] != wrapped[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, wrapped[i], bare[i])
		}
	}
}
