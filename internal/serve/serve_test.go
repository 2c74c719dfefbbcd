package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ev8pred/internal/cache"
	"ev8pred/internal/frontend"
	"ev8pred/internal/report"
	"ev8pred/internal/sim"
	"ev8pred/internal/sweep"
	"ev8pred/internal/workload"
)

// openTestCache opens a fresh content-addressed store in a temp dir.
func openTestCache(t *testing.T) *cache.Store {
	t.Helper()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// testSpec is a small, fast grid: 2 values x 1 benchmark at 100k
// instructions.
func testSpec() Spec {
	return Spec{Scheme: "gshare", Param: "history", Values: []int{4, 8},
		Benchmarks: []string{"m88ksim"}, Instructions: 100_000}
}

func TestSpecCompileErrors(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Spec)
		field string
	}{
		{"no values", func(s *Spec) { s.Values = nil }, "values"},
		{"zero instructions", func(s *Spec) { s.Instructions = 0 }, "instructions"},
		{"negative instructions", func(s *Spec) { s.Instructions = -5 }, "instructions"},
		{"bad scheme", func(s *Spec) { s.Scheme = "nonesuch" }, "scheme/param"},
		{"bad param", func(s *Spec) { s.Param = "nonesuch" }, "scheme/param"},
		{"bad mode", func(s *Spec) { s.Mode = "nonesuch" }, "mode"},
		{"bad benchmark", func(s *Spec) { s.Benchmarks = []string{"nonesuch"} }, "benchmarks"},
		{"too many cells", func(s *Spec) { s.Values = []int{1, 2, 3, 4, 5} }, "values/benchmarks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := testSpec()
			tc.mut(&sp)
			_, err := sp.Compile(4)
			var se *sweep.SpecError
			if !errors.As(err, &se) {
				t.Fatalf("error %v (%T) is not *sweep.SpecError", err, err)
			}
			if se.Field != tc.field {
				t.Errorf("error field %q, want %q (%v)", se.Field, tc.field, err)
			}
		})
	}
}

// TestSpecCompileDefaults pins the zero-value semantics: empty mode and
// benchmarks mean ghist and the full suite — the CLI defaults.
func TestSpecCompileDefaults(t *testing.T) {
	sp := Spec{Scheme: "gshare", Param: "history", Values: []int{4}, Instructions: 1000}
	cs, err := sp.Compile(0)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Options.Mode != frontend.ModeGhist() {
		t.Errorf("default mode = %v, want ghist", cs.Options.Mode)
	}
	if got, want := len(cs.Profiles), len(workload.Benchmarks()); got != want {
		t.Errorf("default benchmarks = %d profiles, want the full suite of %d", got, want)
	}
	if cs.NumCells() != len(workload.Benchmarks()) {
		t.Errorf("cells = %d", cs.NumCells())
	}
}

// TestReorder pins the stream-order contract: completion-order events go
// in, input-order cells come out, each released exactly once.
func TestReorder(t *testing.T) {
	r := newReorder()
	var got []int
	feed := func(idx int) {
		for _, e := range r.add(sim.CellDone{Index: idx}) {
			got = append(got, e.Index)
		}
	}
	for _, idx := range []int{2, 0, 3, 1, 5, 4} {
		feed(idx)
	}
	want := []int{0, 1, 2, 3, 4, 5}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("release order %v, want %v", got, want)
	}
}

func TestAdmissionPolicy(t *testing.T) {
	s := New(Config{MaxJobs: 1, QueueDepth: 1, TenantQuota: 1})

	a, err := s.admit("alice", 4)
	if err != nil {
		t.Fatal(err)
	}
	// Same tenant again: quota.
	if _, err := s.admit("alice", 4); !isAdmitCode(err, "tenant_quota", 429) {
		t.Errorf("second alice job: %v", err)
	}
	// Different tenant fills the queue (MaxJobs+QueueDepth = 2 admitted).
	b, err := s.admit("bob", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.admit("carol", 4); !isAdmitCode(err, "queue_full", 429) {
		t.Errorf("third job: %v", err)
	}
	// Releasing one frees capacity.
	s.release(a)
	c, err := s.admit("carol", 4)
	if err != nil {
		t.Errorf("admit after release: %v", err)
	}
	s.release(b)
	if c != nil {
		s.release(c)
	}
	// Draining refuses everything with 503.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.admit("dave", 4); !isAdmitCode(err, "draining", 503) {
		t.Errorf("admit while draining: %v", err)
	}
}

func isAdmitCode(err error, code string, status int) bool {
	var ae *AdmitError
	return errors.As(err, &ae) && ae.Code == code && ae.Status == status
}

// streamEvents POSTs a spec and decodes the NDJSON response.
func streamEvents(t *testing.T, ts *httptest.Server, tenant string, sp Spec) (int, []Event) {
	t.Helper()
	status, events, err := submitJob(ts, tenant, sp)
	if err != nil {
		t.Fatal(err)
	}
	return status, events
}

// submitJob is streamEvents without the test handle, for goroutines.
func submitJob(ts *httptest.Server, tenant string, sp Spec) (int, []Event, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return 0, nil, fmt.Errorf("bad stream line %q: %w", sc.Text(), err)
		}
		events = append(events, e)
	}
	return resp.StatusCode, events, sc.Err()
}

// TestSubmitStreamsInOrderAndMatchesEngine is the core serving contract:
// the stream is accepted + cells in input order (done == index+1) +
// result, and the result runs are byte-identical to what the engine
// produces directly for the same spec (which is exactly what ev8sweep
// -json emits).
func TestSubmitStreamsInOrderAndMatchesEngine(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sp := testSpec()
	sp.Stats = true // the byte-identical contract includes the counters
	status, events := streamEvents(t, ts, "alice", sp)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(events) < 2 || events[0].Event != "accepted" {
		t.Fatalf("stream did not open with accepted: %+v", events)
	}
	last := events[len(events)-1]
	if last.Event != "result" {
		t.Fatalf("stream did not end with result: %+v", last)
	}
	cells := events[1 : len(events)-1]
	if len(cells) != 2 {
		t.Fatalf("got %d cell events, want 2", len(cells))
	}
	for i, c := range cells {
		if c.Event != "cell" || c.Index != i || c.Done != i+1 || c.Total != 2 {
			t.Errorf("cell event %d out of order: %+v", i, c)
		}
		if c.Workload != "m88ksim" || c.Branches <= 0 {
			t.Errorf("cell event %d: %+v", i, c)
		}
	}

	// Byte-identical to the engine run the CLI would do.
	cs, err := sp.Compile(srv.cfg.MaxCells)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := sweep.RunPool(cs.Factory, cs.Values, cs.Profiles, cs.Instructions, cs.Options, sim.PoolOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want []report.Run
	for _, p := range pts {
		want = append(want, report.FromResults(p.Results)...)
	}
	gotJSON, err := json.Marshal(last.Runs)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("served runs differ from direct engine runs:\n%s\n---\n%s", gotJSON, wantJSON)
	}
	if len(last.Points) != 2 || last.Points[0].X != 4 || last.Points[1].X != 8 {
		t.Errorf("points: %+v", last.Points)
	}

	// The job registry reflects the finished job.
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + last.Job)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.State != JobDone || info.CellsDone != 2 {
		t.Errorf("job info: %+v", info)
	}
}

func TestSubmitRejections(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	decodeErr := func(resp *http.Response) *APIError {
		t.Helper()
		defer resp.Body.Close()
		var out struct {
			Error *APIError `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Error == nil {
			t.Fatalf("error body did not decode: %v", err)
		}
		return out.Error
	}

	resp := post("{not json")
	if resp.StatusCode != 400 {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}
	if api := decodeErr(resp); api.Code != "bad_spec" {
		t.Errorf("malformed body: code %q", api.Code)
	}

	resp = post(`{"scheme":"gshare","param":"history","values":[4],"unknown_field":1,"instructions":1000}`)
	if api := decodeErr(resp); api.Code != "bad_spec" {
		t.Errorf("unknown field: code %q", api.Code)
	}

	resp = post(`{"scheme":"nonesuch","param":"history","values":[4],"instructions":1000}`)
	if api := decodeErr(resp); api.Code != "bad_spec" || resp.StatusCode != 400 {
		t.Errorf("bad scheme: status %d code %q", resp.StatusCode, api.Code)
	}

	resp = post(`{"scheme":"gshare","param":"history","values":[8,8],"instructions":1000}`)
	if api := decodeErr(resp); api.Code != "bad_spec" || resp.StatusCode != 400 {
		t.Errorf("repeated value: status %d code %q", resp.StatusCode, api.Code)
	}

	// Draining: typed 503.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(testSpec())
	resp = post(string(body))
	if resp.StatusCode != 503 {
		t.Errorf("draining submit: status %d", resp.StatusCode)
	}
	if api := decodeErr(resp); api.Code != "draining" {
		t.Errorf("draining submit: code %q", api.Code)
	}
}

// TestQueueFullBackpressure pins the 429 + Retry-After contract without
// racing real jobs: the admission ledger is filled directly, then a real
// HTTP submission must bounce with the backpressure signal.
func TestQueueFullBackpressure(t *testing.T) {
	srv := New(Config{MaxJobs: 1, QueueDepth: 1, TenantQuota: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	a, err := srv.admit("filler", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.release(a)
	b, err := srv.admit("filler", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.release(b)

	body, _ := json.Marshal(testSpec())
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Errorf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After %q, want 1", ra)
	}
	var out struct {
		Error *APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error == nil || out.Error.Code != "queue_full" {
		t.Errorf("error %+v", out.Error)
	}
}

func TestHealthAndJobList(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("health %v", health)
	}

	if _, events := streamEvents(t, ts, "alice", testSpec()); events[len(events)-1].Event != "result" {
		t.Fatalf("job failed: %+v", events[len(events)-1])
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobInfo `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].State != JobDone || list.Jobs[0].Tenant != "alice" {
		t.Errorf("job list %+v", list.Jobs)
	}

	// Unknown job id: typed 404.
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/nonesuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}

	// After drain, healthz flips to 503/draining.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("draining health: status %d", resp.StatusCode)
	}
}

// TestServedResultsUseCache pins the cache integration: a second
// submission of the same spec is answered entirely from the store, with
// identical results.
func TestServedResultsUseCache(t *testing.T) {
	store := openTestCache(t)
	srv := New(Config{Workers: 1, Cache: store})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, first := streamEvents(t, ts, "alice", testSpec())
	_, second := streamEvents(t, ts, "alice", testSpec())
	f, s := first[len(first)-1], second[len(second)-1]
	if f.Event != "result" || s.Event != "result" {
		t.Fatalf("jobs failed: %+v / %+v", f, s)
	}
	fj, _ := json.Marshal(f.Runs)
	sj, _ := json.Marshal(s.Runs)
	if !bytes.Equal(fj, sj) {
		t.Errorf("cached rerun differs:\n%s\n---\n%s", fj, sj)
	}
	hits, _, _, puts := store.Counts()
	if puts == 0 || hits == 0 {
		t.Errorf("cache not exercised: %d hits, %d puts", hits, puts)
	}

	// The health endpoint surfaces the store's counters.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Cache *cache.Snapshot `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Cache == nil || health.Cache.Hits != hits || health.Cache.Puts != puts {
		t.Errorf("healthz cache snapshot %+v, want hits=%d puts=%d", health.Cache, hits, puts)
	}
}
