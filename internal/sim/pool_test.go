package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/workload"
)

// squareJobs builds n jobs where job i returns i*i.
func squareJobs(n int) []func(context.Context) (int, error) {
	jobs := make([]func(context.Context) (int, error), n)
	for i := range jobs {
		jobs[i] = func(context.Context) (int, error) { return i * i, nil }
	}
	return jobs
}

func TestParallelWorkerCounts(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		jobs    int
	}{
		{"defaults", 0, 16},
		{"serial", 1, 16},
		{"two", 2, 16},
		{"many", 8, 16},
		{"more workers than jobs", 64, 3},
		{"single job", 4, 1},
		{"empty job list", 4, 0},
		{"negative workers fall back to defaults", -3, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := Parallel(context.Background(), c.workers, squareJobs(c.jobs))
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != c.jobs {
				t.Fatalf("len(out) = %d, want %d", len(out), c.jobs)
			}
			for i, v := range out {
				if v != i*i {
					t.Errorf("out[%d] = %d, want %d (order not preserved)", i, v, i*i)
				}
			}
		})
	}
}

func TestParallelNilContext(t *testing.T) {
	out, err := Parallel(nil, 4, squareJobs(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 || out[7] != 49 {
		t.Fatalf("out = %v", out)
	}
}

func TestParallelPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			jobs := squareJobs(6)
			jobs[3] = func(context.Context) (int, error) { panic("boom") }
			_, err := Parallel(context.Background(), workers, jobs)
			if err == nil {
				t.Fatal("panic did not surface as an error")
			}
			if want := "job 3 panicked: boom"; !strings.Contains(err.Error(), want) {
				t.Errorf("err = %v, want mention of %q", err, want)
			}
		})
	}
}

func TestParallelFirstErrorWins(t *testing.T) {
	sentinel := errors.New("cell failed")
	jobs := squareJobs(32)
	jobs[5] = func(context.Context) (int, error) { return 0, sentinel }
	for _, workers := range []int{1, 4} {
		_, err := Parallel(context.Background(), workers, jobs)
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, sentinel)
		}
	}
}

// TestParallelErrorCancelsOutstanding: after a job fails, jobs that have
// not started must observe the cancelled context and be skipped. Every job
// but job 3 blocks until the context is cancelled, so the workers can
// claim no job past the first `workers` until job 3 fails: whatever the
// scheduling, at most `workers` jobs start.
func TestParallelErrorCancelsOutstanding(t *testing.T) {
	const n, workers = 200, 4
	sentinel := errors.New("mid-flight failure")
	var started atomic.Int64
	jobs := make([]func(context.Context) (int, error), n)
	for i := range jobs {
		jobs[i] = func(ctx context.Context) (int, error) {
			started.Add(1)
			if i == 3 {
				return 0, sentinel
			}
			select {
			case <-ctx.Done():
			case <-time.After(30 * time.Second):
				t.Errorf("job %d: context not cancelled 30s after start", i)
			}
			return i, nil
		}
	}
	_, err := Parallel(context.Background(), workers, jobs)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if got := started.Load(); got > workers {
		t.Errorf("%d jobs started with %d workers; cancellation did not prune the queue", got, workers)
	}
}

func TestParallelParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	jobs := make([]func(context.Context) (int, error), 64)
	for i := range jobs {
		jobs[i] = func(context.Context) (int, error) {
			if ran.Add(1) == 2 {
				cancel()
			}
			return i, nil
		}
	}
	_, err := Parallel(ctx, 2, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestPoolNoGoroutineLeak hammers the pool with many small fan-outs —
// including failing and panicking jobs mid-flight — and checks the
// goroutine count returns to its baseline (with retry tolerance: runtime
// bookkeeping goroutines wind down asynchronously).
func TestPoolNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sentinel := errors.New("die")
	for round := 0; round < 50; round++ {
		jobs := make([]func(context.Context) (int, error), 40)
		for i := range jobs {
			switch {
			case i == 17 && round%2 == 0:
				jobs[i] = func(context.Context) (int, error) { return 0, sentinel }
			case i == 23 && round%3 == 0:
				jobs[i] = func(context.Context) (int, error) { panic("hammer") }
			default:
				jobs[i] = func(context.Context) (int, error) { return i, nil }
			}
		}
		_, err := Parallel(context.Background(), 8, jobs)
		if round%2 == 0 && err == nil {
			t.Fatalf("round %d: expected an error", round)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return // no leak
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunCellsMatchesSerial is the determinism contract at the Result
// level: identical cells produce field-identical results at every worker
// count.
func TestRunCellsMatchesSerial(t *testing.T) {
	profs := benchProfiles(t, "li", "go", "m88ksim")
	factory := func() (predictor.Predictor, error) { return gshare.New(1<<13, 11) }
	run := func(workers int) []Result {
		rs, err := RunCells(context.Background(), SuiteCells(factory, profs, Options{}),
			150_000, PoolOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	serial := run(1)
	for _, workers := range []int{0, 2, 8} {
		got := run(workers)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(serial))
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Errorf("workers=%d: result[%d] = %+v, serial %+v", workers, i, got[i], serial[i])
			}
		}
	}
}

func TestRunCellsFactoryError(t *testing.T) {
	profs := benchProfiles(t, "li")
	boom := errors.New("no predictor")
	_, err := RunCells(context.Background(),
		SuiteCells(func() (predictor.Predictor, error) { return nil, boom }, profs, Options{}),
		10_000, PoolOptions{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if !strings.Contains(err.Error(), "li") {
		t.Errorf("error %v should name the failing benchmark", err)
	}
}

func TestRunCellsProgress(t *testing.T) {
	profs := benchProfiles(t, "li", "go", "m88ksim", "perl")
	var events []CellDone
	_, err := RunCells(context.Background(),
		SuiteCells(func() (predictor.Predictor, error) { return gshare.New(1<<12, 10) }, profs, Options{}),
		50_000, PoolOptions{Workers: 4, Progress: func(ev CellDone) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(profs) {
		t.Fatalf("%d progress events, want %d", len(events), len(profs))
	}
	seen := map[int]bool{}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Errorf("event %d: Done = %d, want %d (not monotone)", i, ev.Done, i+1)
		}
		if ev.Total != len(profs) {
			t.Errorf("event %d: Total = %d, want %d", i, ev.Total, len(profs))
		}
		if ev.Branches <= 0 || ev.Instructions <= 0 {
			t.Errorf("event %d: empty cell stats: %+v", i, ev)
		}
		if seen[ev.Index] {
			t.Errorf("cell %d reported twice", ev.Index)
		}
		seen[ev.Index] = true
	}
}

// benchProfiles resolves named benchmark profiles.
func benchProfiles(t *testing.T, names ...string) []workload.Profile {
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
