package live

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

// TestConcurrentObserversIsolated: two runs fed concurrently each count
// exactly their own cells — each Progress is state of the run that owns
// it, with no process-global name to merge through.
func TestConcurrentObserversIsolated(t *testing.T) {
	a, b := NewProgress(), NewProgress()
	const perRun = 500
	var wg sync.WaitGroup
	for _, p := range []*Progress{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perRun; i++ {
				p.Observe(sim.CellDone{Total: perRun, Branches: 10, Instructions: 100})
			}
		}()
	}
	wg.Wait()
	for name, p := range map[string]*Progress{"a": a, "b": b} {
		got := p.Snapshot()
		want := ProgressSnapshot{CellsDone: perRun, CellsTotal: perRun,
			Branches: perRun * 10, Instructions: perRun * 100, StartedAt: got.StartedAt}
		if got != want {
			t.Errorf("run %s: %+v, want exactly its own %+v", name, got, want)
		}
	}
}

// TestProgressMatchesRunCells: a Progress fed by a parallel pool totals
// the same branches and instructions as the Results the pool returns.
func TestProgressMatchesRunCells(t *testing.T) {
	factory := func() (predictor.Predictor, error) { return gshare.New(1<<12, 8) }
	cells := sim.SuiteCells(factory, workload.Benchmarks(), sim.Options{})
	p := NewProgress()
	rs, err := sim.RunCells(context.Background(), cells, 50_000,
		sim.PoolOptions{Workers: 4, Progress: p.Observe})
	if err != nil {
		t.Fatal(err)
	}
	var branches, instr int64
	for _, r := range rs {
		branches += r.Branches
		instr += r.Instructions
	}
	got := p.Snapshot()
	if got.CellsDone != int64(len(cells)) || got.CellsTotal != int64(len(cells)) ||
		got.Branches != branches || got.Instructions != instr {
		t.Errorf("progress %+v, want %d cells, %d branches, %d instructions",
			got, len(cells), branches, instr)
	}
}

// TestServeDebug: the page keeps the standard expvar variables and adds
// the caller's key, rendered from its snapshot at request time.
func TestServeDebug(t *testing.T) {
	p := NewProgress()
	d, err := ServeDebug("127.0.0.1:0", Handler("run", func() any { return p.Snapshot() }))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	p.Observe(sim.CellDone{Total: 8, Branches: 1234, Instructions: 9999})
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", d.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Cmdline  []string         `json:"cmdline"`
		Memstats map[string]any   `json:"memstats"`
		Run      ProgressSnapshot `json:"run"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("debug page is not JSON: %v\n%s", err, body)
	}
	if len(vars.Cmdline) == 0 || len(vars.Memstats) == 0 {
		t.Errorf("standard expvar variables missing:\n%s", body)
	}
	if want := p.Snapshot(); !vars.Run.StartedAt.Equal(want.StartedAt) || vars.Run.Branches != 1234 ||
		vars.Run.CellsDone != 1 || vars.Run.CellsTotal != 8 || vars.Run.Instructions != 9999 {
		t.Errorf("run = %+v, want %+v", vars.Run, want)
	}
}

// TestServeDebugCloseFreesPort is the regression test for the listener
// leak: Close must unblock the serve goroutine and release the port, so
// the same address can be bound again. (The old ServeDebug returned only
// the address; the listener and http.Server lived until process exit.)
func TestServeDebugCloseFreesPort(t *testing.T) {
	d, err := ServeDebug("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	addr := d.Addr().String()
	if err := d.Close(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Close: %v", err)
	}
	// Close waits for Serve to return; the done channel must be closed.
	select {
	case <-d.done:
	default:
		t.Fatal("Close returned but the serve goroutine is still running")
	}
	// The exact port must be rebindable — the leak held it forever.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port %s not released after Close: %v", addr, err)
	}
	ln.Close()
	// And the endpoint must actually be down.
	client := http.Client{Timeout: 500 * time.Millisecond}
	if resp, err := client.Get("http://" + addr + "/debug/vars"); err == nil {
		resp.Body.Close()
		t.Error("endpoint still serving after Close")
	}
}

// TestServeDebugShutdown covers the graceful path: Shutdown returns nil
// on an idle server and the serve goroutine exits.
func TestServeDebugShutdown(t *testing.T) {
	d, err := ServeDebug("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Shutdown(t.Context()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case <-d.done:
	default:
		t.Fatal("Shutdown returned nil but the serve goroutine is still running")
	}
}
