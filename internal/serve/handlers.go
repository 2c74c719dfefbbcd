// HTTP surface of the daemon: the Go 1.22 method+path mux, the NDJSON
// event stream for job submission, and the status/health endpoints.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"ev8pred/internal/cache"
	"ev8pred/internal/report"
	"ev8pred/internal/sim"
	"ev8pred/internal/stats/live"
)

// APIError is the JSON error body (and NDJSON error-event payload).
type APIError struct {
	Code          string `json:"code"`
	Message       string `json:"message"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
}

// Event is one line of the submission response stream. Every line has
// Event set; the other fields fill in per kind:
//
//	"accepted" — job admitted: Job, Tenant, Total (cell count)
//	"cell"     — one cell finished: Index (input order), Done, Total,
//	             Predictor, Workload and the measured counters. Cells
//	             are streamed in input order (Index ascending), so Done
//	             is always Index+1 even though the pool completes cells
//	             in any order.
//	"result"   — terminal success: Runs (byte-identical to ev8sweep
//	             -json for the same spec) and per-value Points.
//	"error"    — terminal failure: Error.
type Event struct {
	Event string `json:"event"`
	Job   string `json:"job,omitempty"`

	// accepted
	Tenant string `json:"tenant,omitempty"`

	// cell
	Index        int    `json:"index,omitempty"`
	Done         int    `json:"done,omitempty"`
	Total        int    `json:"total,omitempty"`
	Predictor    string `json:"predictor,omitempty"`
	Workload     string `json:"workload,omitempty"`
	Branches     int64  `json:"branches,omitempty"`
	Mispredicts  int64  `json:"mispredicts,omitempty"`
	Instructions int64  `json:"instructions,omitempty"`

	// result
	Runs   []report.Run   `json:"runs,omitempty"`
	Points []PointSummary `json:"points,omitempty"`

	// error
	Error *APIError `json:"error,omitempty"`
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs      — submit a Spec, stream Events as NDJSON
//	GET  /v1/jobs      — list jobs (admission order)
//	GET  /v1/jobs/{id} — one job's status
//	GET  /healthz      — liveness + drain state
//	GET  /debug/vars   — expvar page plus this server's "ev8serve" key:
//	                     scheduler totals, the running jobs' JobInfo and,
//	                     with a cache attached, its counter snapshot
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /debug/vars", live.Handler("ev8serve", s.debugVars))
	return mux
}

// debugPage is the "ev8serve" key of /debug/vars.
type debugPage struct {
	totals
	Running []JobInfo       `json:"running"`
	Cache   *cache.Snapshot `json:"cache,omitempty"`
}

// debugVars snapshots the server's debugPage.
func (s *Server) debugVars() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	page := debugPage{totals: s.totals, Running: []JobInfo{}}
	for _, id := range s.order {
		if info := s.jobs[id].Info(); info.State == JobRunning {
			page.Running = append(page.Running, info)
		}
	}
	if s.cfg.Cache != nil {
		snap := s.cfg.Cache.Snapshot()
		page.Cache = &snap
	}
	return page
}

// writeError sends a non-stream JSON error response.
func writeError(w http.ResponseWriter, status int, api *APIError) {
	w.Header().Set("Content-Type", "application/json")
	if api.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(api.RetryAfterSec))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]*APIError{"error": api})
}

// apiErrorFor maps an error from admission/compilation/execution to its
// wire form and HTTP status.
func apiErrorFor(err error) (int, *APIError) {
	var ae *AdmitError
	if errors.As(err, &ae) {
		return ae.Status, &APIError{Code: ae.Code, Message: ae.Message, RetryAfterSec: ae.RetryAfter}
	}
	var se *SpecError
	if errors.As(err, &se) {
		return http.StatusBadRequest, &APIError{Code: "bad_spec", Message: se.Error()}
	}
	if errors.Is(err, sim.ErrCanceled) {
		// The tenant went away; status is moot (the stream is broken),
		// but the job registry keeps the code.
		return http.StatusBadRequest, &APIError{Code: "canceled", Message: err.Error()}
	}
	return http.StatusInternalServerError, &APIError{Code: "internal", Message: err.Error()}
}

// reorder re-sequences completion-order pool events into input order: it
// holds back out-of-order cells and releases the contiguous run starting
// at the next unseen index. The stream contract ("cells arrive in input
// order, done == index+1") is what lets a tenant resume/seek
// deterministically.
type reorder struct {
	next    int
	pending map[int]sim.CellDone
}

func newReorder() *reorder { return &reorder{pending: map[int]sim.CellDone{}} }

// add absorbs one event and returns the cells now releasable, in order.
func (r *reorder) add(e sim.CellDone) []sim.CellDone {
	r.pending[e.Index] = e
	var out []sim.CellDone
	for {
		e, ok := r.pending[r.next]
		if !ok {
			return out
		}
		delete(r.pending, r.next)
		r.next++
		out = append(out, e)
	}
}

// jobOutcome carries a finished runJob back to the streaming handler.
type jobOutcome struct {
	runs   []report.Run
	points []PointSummary
	err    error
}

// handleSubmit admits a Spec and streams the job's life as NDJSON. The
// response is request-scoped: closing the connection cancels the job
// mid-cell (r.Context propagates through the pool into the trace source).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	var sp Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		writeError(w, http.StatusBadRequest, &APIError{Code: "bad_spec", Message: "decoding spec: " + err.Error()})
		return
	}
	cs, err := sp.compile(s.cfg.MaxCells)
	if err != nil {
		status, api := apiErrorFor(err)
		writeError(w, status, api)
		return
	}
	job, err := s.admit(tenant, cs.cells)
	if err != nil {
		status, api := apiErrorFor(err)
		writeError(w, status, api)
		return
	}
	defer s.release(job)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(e Event) {
		// A failed write means the tenant is gone; r.Context cancellation
		// is already winding the job down, so just stop flushing.
		if err := enc.Encode(e); err == nil && flusher != nil {
			flusher.Flush()
		}
	}
	emit(Event{Event: "accepted", Job: job.ID, Tenant: tenant, Total: cs.cells})

	// The event channel is sized to the whole fan-out so the pool's
	// progress callback never blocks on a slow tenant connection.
	evCh := make(chan sim.CellDone, cs.cells)
	outCh := make(chan jobOutcome, 1)
	go func() {
		runs, pts, err := s.runJob(r.Context(), job, cs, func(e sim.CellDone) { evCh <- e })
		outCh <- jobOutcome{runs: runs, points: pts, err: err}
	}()

	relay := newReorder()
	emitCells := func(e sim.CellDone) {
		for _, c := range relay.add(e) {
			emit(Event{Event: "cell", Job: job.ID,
				Index: c.Index, Done: c.Index + 1, Total: c.Total,
				Predictor: c.Predictor, Workload: c.Workload,
				Branches: c.Branches, Mispredicts: c.Mispredicts, Instructions: c.Instructions})
		}
	}
	for {
		select {
		case e := <-evCh:
			emitCells(e)
		case out := <-outCh:
			// runJob has returned; drain any events it buffered first.
			for {
				select {
				case e := <-evCh:
					emitCells(e)
					continue
				default:
				}
				break
			}
			if out.err != nil {
				_, api := apiErrorFor(out.err)
				state := JobFailed
				if api.Code == "rejected_draining" {
					state = JobRejected
					s.logf("serve: job %s rejected at drain", job.ID)
				}
				s.finish(job, state, api.Message)
				emit(Event{Event: "error", Job: job.ID, Error: api})
				return
			}
			s.finish(job, JobDone, "")
			emit(Event{Event: "result", Job: job.ID, Runs: out.runs, Points: out.points})
			return
		}
	}
}

// handleList reports every registered job in admission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string][]JobInfo{"jobs": s.jobInfos()})
}

// handleJob reports one job.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	info, ok := s.jobInfo(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, &APIError{Code: "not_found",
			Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(info)
}

// handleHealth reports liveness and drain state — load balancers pull a
// draining instance out of rotation on the 503.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining, admitted := s.draining, s.admitted
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	code := http.StatusOK
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	body := map[string]any{"status": status, "jobs_admitted": admitted}
	if s.cfg.Cache != nil {
		body["cache"] = s.cfg.Cache.Snapshot()
	}
	_ = json.NewEncoder(w).Encode(body)
}
