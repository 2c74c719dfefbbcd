// Package serve is the prediction-as-a-service layer: a long-running
// HTTP daemon (cmd/ev8serve) that accepts experiment specs as JSON,
// schedules them onto the existing pool/ensemble simulation engine
// through the content-addressed result cache, streams per-cell progress
// and final results back as NDJSON, and multiplexes concurrent tenants
// with per-tenant job quotas, a bounded admission queue with
// backpressure, and graceful drain. docs/SERVING.md documents the API
// and semantics; the core contract is that results served for any spec
// are byte-identical to the equivalent ev8sweep/ev8bench CLI run.
package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ev8pred/internal/cache"
	"ev8pred/internal/report"
	"ev8pred/internal/sim"
	"ev8pred/internal/stats/live"
	"ev8pred/internal/sweep"
)

// Config sizes one Server. Zero values take the documented defaults.
type Config struct {
	// Workers bounds each job's simulation fan-out (sim.PoolOptions.
	// Workers; 0 = one per CPU). Schedule-only: results are identical
	// for every value.
	Workers int
	// MaxJobs bounds concurrently RUNNING jobs (default 2). Admitted
	// jobs beyond it wait in the queue.
	MaxJobs int
	// QueueDepth bounds admitted-but-not-running jobs (default 8).
	// Beyond MaxJobs+QueueDepth, submissions are rejected with 429 and
	// a Retry-After header — the backpressure signal.
	QueueDepth int
	// TenantQuota bounds one tenant's admitted (queued + running) jobs
	// (default 4); the quota protects tenants from each other, the
	// queue protects the process.
	TenantQuota int
	// MaxCells caps one spec's cell fan-out (default 4096) so a single
	// request cannot enqueue an unbounded grid.
	MaxCells int
	// Cache, if non-nil, answers cells from the content-addressed
	// result store and stores fresh ones — the same store the CLIs
	// share, so the daemon serves warm sweeps with zero simulation work.
	Cache *cache.Store
	// Log, if non-nil, receives harness diagnostics.
	Log func(format string, args ...interface{})
}

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.TenantQuota <= 0 {
		c.TenantQuota = 4
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 4096
	}
	return c
}

// AdmitError is the typed refusal of a job submission. The HTTP layer
// maps it to its status code and, for retryable refusals, a Retry-After
// header; the drain test asserts on Code.
type AdmitError struct {
	Code       string // "queue_full" | "tenant_quota" | "draining" | "rejected_draining"
	Status     int    // HTTP status the refusal maps to
	RetryAfter int    // seconds; 0 = not retryable here
	Message    string
}

// Error implements error.
func (e *AdmitError) Error() string { return fmt.Sprintf("serve: %s: %s", e.Code, e.Message) }

// JobState is a job's lifecycle position.
type JobState string

const (
	JobQueued   JobState = "queued"   // admitted, waiting for a run slot
	JobRunning  JobState = "running"  // simulating
	JobDone     JobState = "done"     // completed, result streamed
	JobFailed   JobState = "failed"   // simulation or stream error
	JobRejected JobState = "rejected" // queued at drain time, never ran
)

// terminal reports whether a job has finished moving.
func (s JobState) terminal() bool { return s == JobDone || s == JobFailed || s == JobRejected }

// Job is one admitted experiment. Fields behind mu move as the job runs;
// Info snapshots them.
type Job struct {
	ID     string
	Tenant string
	Cells  int

	mu       sync.Mutex
	state    JobState
	progress *live.Progress // set when the job starts running
	errMsg   string
}

// JobInfo is the status-endpoint snapshot of a Job. The progress fields
// are the job's live.Progress, zero until the job starts running.
type JobInfo struct {
	ID     string   `json:"id"`
	Tenant string   `json:"tenant"`
	State  JobState `json:"state"`
	Cells  int      `json:"cells"`
	live.ProgressSnapshot
	Error string `json:"error,omitempty"`
}

// Info snapshots the job.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{ID: j.ID, Tenant: j.Tenant, State: j.state, Cells: j.Cells, Error: j.errMsg}
	if j.progress != nil {
		info.ProgressSnapshot = j.progress.Snapshot()
	}
	return info
}

// start moves the job to running with a fresh Progress, which it returns.
func (j *Job) start() *live.Progress {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = JobRunning
	j.progress = live.NewProgress()
	return j.progress
}

// maxJobHistory bounds the job registry: terminal jobs beyond this many
// are pruned oldest-first, so a long-running daemon's registry cannot
// grow without bound.
const maxJobHistory = 256

// Server schedules experiment specs onto the simulation engine for many
// concurrent tenants. Build with New, mount Handler on an http.Server,
// and Drain before exit.
type Server struct {
	cfg     Config
	drainCh chan struct{}
	slots   chan struct{} // run-slot semaphore

	mu       sync.Mutex
	draining bool
	admitted int            // queued + running jobs
	tenants  map[string]int // admitted jobs per tenant
	jobs     map[string]*Job
	order    []string // job IDs, admission order
	seq      int
	totals   totals
}

// totals are the scheduler's counters since New. Every admitted job is
// counted once more by its final state; the rejected_* counters are
// submissions refused at admission, which were never admitted.
type totals struct {
	JobsAdmitted        int `json:"jobs_admitted"`
	JobsDone            int `json:"jobs_done"`
	JobsFailed          int `json:"jobs_failed"`
	JobsRejected        int `json:"jobs_rejected"`
	RejectedQueueFull   int `json:"rejected_queue_full"`
	RejectedTenantQuota int `json:"rejected_tenant_quota"`
	RejectedDraining    int `json:"rejected_draining"`
}

// New builds a Server from cfg (zero fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		drainCh: make(chan struct{}),
		slots:   make(chan struct{}, cfg.MaxJobs),
		tenants: map[string]int{},
		jobs:    map[string]*Job{},
	}
}

// logf forwards a diagnostic to the configured log hook.
func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

// admit applies the admission policy — drain gate, per-tenant quota,
// bounded queue — and registers the job. Every refusal is a typed
// *AdmitError; the counters make refusals visible in /debug/vars.
func (s *Server) admit(tenant string, cells int) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.totals.RejectedDraining++
		return nil, &AdmitError{Code: "draining", Status: 503,
			Message: "server is draining; not admitting new jobs"}
	}
	if s.tenants[tenant] >= s.cfg.TenantQuota {
		s.totals.RejectedTenantQuota++
		return nil, &AdmitError{Code: "tenant_quota", Status: 429, RetryAfter: 1,
			Message: fmt.Sprintf("tenant %q already has %d jobs admitted (quota %d)", tenant, s.tenants[tenant], s.cfg.TenantQuota)}
	}
	if s.admitted >= s.cfg.MaxJobs+s.cfg.QueueDepth {
		s.totals.RejectedQueueFull++
		return nil, &AdmitError{Code: "queue_full", Status: 429, RetryAfter: 1,
			Message: fmt.Sprintf("admission queue full (%d running + %d queued)", s.cfg.MaxJobs, s.cfg.QueueDepth)}
	}
	s.admitted++
	s.tenants[tenant]++
	s.seq++
	job := &Job{ID: fmt.Sprintf("j%d", s.seq), Tenant: tenant, Cells: cells, state: JobQueued}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.pruneLocked()
	s.totals.JobsAdmitted++
	return job, nil
}

// pruneLocked drops the oldest terminal jobs beyond maxJobHistory.
func (s *Server) pruneLocked() {
	for len(s.order) > maxJobHistory {
		id := s.order[0]
		if j := s.jobs[id]; j != nil && !j.Info().State.terminal() {
			return // oldest is still moving; keep everything
		}
		delete(s.jobs, id)
		s.order = s.order[1:]
	}
}

// finish moves job to its terminal state and counts it by that state.
func (s *Server) finish(job *Job, state JobState, msg string) {
	job.mu.Lock()
	job.state, job.errMsg = state, msg
	job.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch state {
	case JobDone:
		s.totals.JobsDone++
	case JobFailed:
		s.totals.JobsFailed++
	case JobRejected:
		s.totals.JobsRejected++
	}
}

// release returns a job's admission and tenant-quota tokens.
func (s *Server) release(job *Job) {
	s.mu.Lock()
	s.admitted--
	if s.tenants[job.Tenant]--; s.tenants[job.Tenant] <= 0 {
		delete(s.tenants, job.Tenant)
	}
	s.mu.Unlock()
}

// jobInfos snapshots the registry in admission order.
func (s *Server) jobInfos() []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobInfo, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			out = append(out, j.Info())
		}
	}
	return out
}

// jobInfo snapshots one job.
func (s *Server) jobInfo(id string) (JobInfo, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobInfo{}, false
	}
	return j.Info(), true
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully winds the server down: new submissions are refused
// with a typed 503, jobs still waiting for a run slot are rejected with
// a typed stream error, and running jobs — including their cache puts,
// which happen synchronously before a job completes — run to completion.
// Drain returns when every admitted job has settled, or with an error
// naming the stragglers when ctx expires first. Safe to call more than
// once; the HTTP listener itself is shut down by the caller afterwards
// (cmd/ev8serve pairs Drain with http.Server.Shutdown).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()
	for {
		s.mu.Lock()
		n := s.admitted
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain interrupted with %d jobs still in flight: %w", n, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// PointSummary is the per-value aggregate of a finished job, mirroring
// the sweep table's MEAN column.
type PointSummary struct {
	X    int     `json:"x"`
	Mean float64 `json:"mean_misp_per_ki"`
}

// runJob takes a run slot (or gives up on drain/cancel), executes the
// compiled spec through the shared engine, and reports per-cell progress
// through events. It owns the queued→running transition; the caller owns
// the terminal one.
func (s *Server) runJob(ctx context.Context, job *Job, cs *compiledSpec, events func(sim.CellDone)) ([]report.Run, []PointSummary, error) {
	select {
	case s.slots <- struct{}{}:
	case <-s.drainCh:
		return nil, nil, &AdmitError{Code: "rejected_draining", Status: 503,
			Message: "server drained before the job reached a run slot"}
	case <-ctx.Done():
		return nil, nil, fmt.Errorf("%w: tenant went away while queued", sim.ErrCanceled)
	}
	defer func() { <-s.slots }()
	progress := job.start()

	pool := sim.PoolOptions{
		Workers:  s.cfg.Workers,
		Ensemble: cs.opts.Ensemble,
		Cache:    s.cfg.Cache,
		Log:      s.cfg.Log,
		Progress: func(e sim.CellDone) {
			progress.Observe(e)
			events(e)
		},
	}
	pts, err := sweep.RunPoolCtx(ctx, cs.factory, cs.xs, cs.profs, cs.instr, cs.opts, pool)
	if err != nil {
		return nil, nil, err
	}
	// The runs array is exactly what ev8sweep -json emits for this sweep
	// — report.FromResults over the points in value-major order — so the
	// byte-identical contract holds at the serialization level too.
	var runs []report.Run
	sums := make([]PointSummary, len(pts))
	for i, p := range pts {
		runs = append(runs, report.FromResults(p.Results)...)
		sums[i] = PointSummary{X: p.X, Mean: p.Mean}
	}
	return runs, sums, nil
}
