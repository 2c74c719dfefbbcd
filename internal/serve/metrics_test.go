package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"ev8pred/internal/sim"
)

// readDebug fetches ts's /debug/vars and decodes its "ev8serve" key.
func readDebug(t *testing.T, ts *httptest.Server) debugPage {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars lost the standard memstats variable")
	}
	var page debugPage
	if err := json.Unmarshal(vars["ev8serve"], &page); err != nil {
		t.Fatalf("ev8serve key %s: %v", vars["ev8serve"], err)
	}
	return page
}

// runOK submits sp and fails the test unless the job ends in a result.
func runOK(t *testing.T, ts *httptest.Server, sp Spec) {
	t.Helper()
	if _, events := streamEvents(t, ts, "alice", sp); events[len(events)-1].Event != "result" {
		t.Fatalf("job failed: %+v", events[len(events)-1])
	}
}

// TestTwoServersIsolated: a second Server in the same process neither
// resets the first one's totals nor feeds it its own admissions.
func TestTwoServersIsolated(t *testing.T) {
	a := httptest.NewServer(New(Config{Workers: 1}).Handler())
	defer a.Close()
	runOK(t, a, testSpec())
	want := totals{JobsAdmitted: 1, JobsDone: 1}
	if got := readDebug(t, a).totals; got != want {
		t.Fatalf("first server before the second exists: %+v, want %+v", got, want)
	}

	b := httptest.NewServer(New(Config{Workers: 1}).Handler())
	defer b.Close()
	if got := readDebug(t, a).totals; got != want {
		t.Errorf("first server after the second New: %+v, want %+v", got, want)
	}
	runOK(t, b, testSpec())
	runOK(t, b, testSpec())
	if got := readDebug(t, a).totals; got != want {
		t.Errorf("first server after the second's jobs: %+v, want %+v", got, want)
	}
	if got, wantB := readDebug(t, b).totals, (totals{JobsAdmitted: 2, JobsDone: 2}); got != wantB {
		t.Errorf("second server: %+v, want %+v", got, wantB)
	}
}

// TestDebugVarsCacheSnapshot: with a cache attached, the debug page
// carries the store's counters, the snapshot /healthz shows too; without
// one the page has no cache key.
func TestDebugVarsCacheSnapshot(t *testing.T) {
	plain := httptest.NewServer(New(Config{Workers: 1}).Handler())
	defer plain.Close()
	runOK(t, plain, testSpec())
	if c := readDebug(t, plain).Cache; c != nil {
		t.Errorf("server without a cache shows cache counters %+v", c)
	}

	store := openTestCache(t)
	ts := httptest.NewServer(New(Config{Workers: 1, Cache: store}).Handler())
	defer ts.Close()
	runOK(t, ts, testSpec())
	runOK(t, ts, testSpec())
	want := store.Snapshot()
	if want.Hits == 0 || want.Misses == 0 || want.Puts == 0 {
		t.Fatalf("a cold and a warm job left counters %+v", want)
	}
	if c := readDebug(t, ts).Cache; c == nil || *c != want {
		t.Errorf("debug page cache counters %+v, want %+v", c, want)
	}
}

// TestDrainRunsJobWithFreeSlot: a job admitted before the drain starts
// runs to completion when a run slot is free, even when the drain began
// before the job reached its slot (a SIGTERM right after "accepted").
// Each job is an independent chance for the drain to win a random pick.
func TestDrainRunsJobWithFreeSlot(t *testing.T) {
	const jobs = 20
	srv := New(Config{Workers: 1, MaxJobs: 1, QueueDepth: jobs, TenantQuota: jobs})
	sp := Spec{Scheme: "gshare", Param: "history", Values: []int{4},
		Benchmarks: []string{"li"}, Instructions: 10_000}
	cs, err := sp.Compile(0)
	if err != nil {
		t.Fatal(err)
	}
	admitted := make([]*Job, jobs)
	for i := range admitted {
		if admitted[i], err = srv.admit("alice", cs.NumCells()); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	for _, job := range admitted {
		if _, _, err := srv.runJob(ctx, job, cs, func(sim.CellDone) {}); err != nil {
			t.Errorf("job %s with a free slot: %v", job.ID, err)
		}
		srv.finish(job, JobDone, "")
		srv.release(job)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
}

// TestDrainCountsEachJobOnce drains with one job running and one queued:
// the queued one ends rejected, and every admitted job is counted once,
// by its final state.
func TestDrainCountsEachJobOnce(t *testing.T) {
	srv := New(Config{Workers: 1, MaxJobs: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type outcome struct {
		events []Event
		err    error
	}
	submit := func(sp Spec) <-chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			_, events, err := submitJob(ts, "alice", sp)
			ch <- outcome{events, err}
		}()
		return ch
	}
	waitState := func(id string, want JobState) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if info, ok := srv.jobInfo(id); ok && info.State == want {
				return
			}
		}
		t.Fatalf("job %s never reached state %s", id, want)
	}

	// The running job is long enough to outlast the queued job's
	// admission; the state check below fails loudly if it does not.
	long := Spec{Scheme: "gshare", Param: "history", Values: []int{4, 6},
		Benchmarks: []string{"li", "go"}, Instructions: 5_000_000}
	runningCh := submit(long)
	waitState("j1", JobRunning)
	queuedCh := submit(testSpec())
	waitState("j2", JobQueued)
	page := readDebug(t, ts)
	if info, _ := srv.jobInfo("j1"); info.State != JobRunning {
		t.Fatalf("j1 finished before the drain started (%+v); lengthen its spec", info)
	}
	if len(page.Running) != 1 || page.Running[0].ID != "j1" {
		t.Errorf("running jobs on the debug page: %+v, want j1 alone", page.Running)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		ch         <-chan outcome
		event, api string
	}{{runningCh, "result", ""}, {queuedCh, "error", "rejected_draining"}} {
		out := <-c.ch
		if out.err != nil || len(out.events) == 0 {
			t.Fatalf("stream: %v (%d events)", out.err, len(out.events))
		}
		last := out.events[len(out.events)-1]
		if last.Event != c.event || (c.api != "" && (last.Error == nil || last.Error.Code != c.api)) {
			t.Errorf("final event %+v, want %q %s", last, c.event, c.api)
		}
	}

	page = readDebug(t, ts)
	want := totals{JobsAdmitted: 2, JobsDone: 1, JobsRejected: 1}
	if page.totals != want {
		t.Errorf("totals after drain: %+v, want %+v", page.totals, want)
	}
	if got := page.JobsDone + page.JobsFailed + page.JobsRejected; got != page.JobsAdmitted {
		t.Errorf("jobs_admitted %d != jobs_done + jobs_failed + jobs_rejected %d", page.JobsAdmitted, got)
	}
	if len(page.Running) != 0 {
		t.Errorf("running jobs after drain: %+v", page.Running)
	}
	info, _ := srv.jobInfo("j1")
	if info.CellsDone != 4 || info.CellsTotal != 4 || info.Branches <= 0 || info.Instructions <= 0 {
		t.Errorf("finished job's progress: %+v", info)
	}
}
