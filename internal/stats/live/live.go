// Package live exposes run progress over HTTP, so a long ev8bench run —
// or any job inside the ev8serve daemon — can be inspected from outside
// the process while it executes (curl the -expvar address or the
// daemon's /debug/vars).
//
// It is deliberately a separate package from the pure counter layer
// (package stats): linking expvar/net/http wakes enough background
// machinery to trip the zero-allocation hot-path gate in binaries that
// never serve anything, so only the CLIs and the daemon import this
// package. The predictor/sim layers depend on package stats alone.
//
// Progress is plain state owned by the run that feeds it; nothing is
// published under a process-global expvar name. Handler renders the
// owner's snapshot into the standard expvar page on each request, so two
// runs — or two servers — in one process never share a counter.
package live

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"ev8pred/internal/sim"
)

// Progress is one run's live progress. Observe and Snapshot are safe
// for concurrent use.
type Progress struct {
	mu   sync.Mutex
	snap ProgressSnapshot
}

// ProgressSnapshot is a consistent reading of a Progress.
type ProgressSnapshot struct {
	CellsDone    int64     `json:"cells_done"`
	CellsTotal   int64     `json:"cells_total"`
	Branches     int64     `json:"branches"`
	Instructions int64     `json:"instructions"`
	StartedAt    time.Time `json:"started_at"`
}

// NewProgress returns a Progress whose run starts now.
func NewProgress() *Progress {
	return &Progress{snap: ProgressSnapshot{StartedAt: time.Now()}}
}

// Observe records one completed cell; it is a sim.ProgressFunc. The
// total is the fan-out size of the latest event (suite drivers may run
// several fan-outs; the latest wins, matching what "in progress now"
// means to a reader).
func (p *Progress) Observe(e sim.CellDone) {
	p.mu.Lock()
	p.snap.CellsDone++
	p.snap.CellsTotal = int64(e.Total)
	p.snap.Branches += e.Branches
	p.snap.Instructions += e.Instructions
	p.mu.Unlock()
}

// Snapshot reads the progress so far.
func (p *Progress) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snap
}

// Handler serves the standard expvar page — every published variable,
// so cmdline and memstats stay — plus key, rendered as JSON from
// snapshot on each request.
func Handler(key string, snapshot func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := json.Marshal(snapshot())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n")
		expvar.Do(func(kv expvar.KeyValue) {
			fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value)
		})
		fmt.Fprintf(w, "%q: %s\n}\n", key, body)
	})
}

// DebugServer is a running debug HTTP endpoint with a shutdown path, so
// tests can release the port and a daemon can drain.
type DebugServer struct {
	addr net.Addr
	srv  *http.Server
	done chan struct{} // closed when Serve returns
}

// ServeDebug starts an HTTP listener on addr (e.g. "localhost:0" or
// ":8080") serving h on every path. Close (or Shutdown) the returned
// server to unblock the serve goroutine and free the port; while
// running, inspect it with: curl http://<Addr>/debug/vars
func ServeDebug(addr string, h http.Handler) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: debug listener: %w", err)
	}
	d := &DebugServer{
		addr: ln.Addr(),
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		// Serve returns http.ErrServerClosed after Close/Shutdown; any
		// other accept error just ends a diagnostics endpoint.
		_ = d.srv.Serve(ln)
	}()
	return d, nil
}

// Addr reports the bound address, so callers can print it and tests can
// dial it.
func (d *DebugServer) Addr() net.Addr { return d.addr }

// Close immediately closes the listener and any active connections,
// then waits for the serve goroutine to exit — after Close returns the
// port is free to rebind.
func (d *DebugServer) Close() error {
	err := d.srv.Close()
	<-d.done
	return err
}

// Shutdown gracefully stops the server: no new connections, in-flight
// requests run to completion (or until ctx expires). The serve
// goroutine has exited when Shutdown returns nil.
func (d *DebugServer) Shutdown(ctx context.Context) error {
	if err := d.srv.Shutdown(ctx); err != nil {
		return err
	}
	<-d.done
	return nil
}
