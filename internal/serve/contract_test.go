package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"ev8pred/internal/frontend"
	"ev8pred/internal/report"
	"ev8pred/internal/sim"
	"ev8pred/internal/sweep"
)

// optionsRow is the ev8serve column of the sim.Options contract for one
// field. A field a spec can reach (spec or cfg set) must be honoured:
// the served runs equal sweep.RunPool under want. A field a spec cannot
// reach (json set) must be refused as bad_spec when its JSON name is
// submitted.
type optionsRow struct {
	field string
	name  string // subtest name when a field has several rows
	spec  func(*Spec)
	cfg   Config
	want  sim.Options
	json  string
}

var optionsRows = []optionsRow{
	{field: "Mode", spec: func(sp *Spec) { sp.Mode = "ev8" }, want: sim.Options{Mode: frontend.ModeEV8()}},
	{field: "Collect", spec: func(sp *Spec) { sp.Stats = true }, want: sim.Options{Collect: true}},
	{field: "Ensemble", name: "Ensemble/off", spec: func(sp *Spec) { sp.Ensemble = "off" }, want: sim.Options{Ensemble: sim.EnsembleOff}},
	{field: "Ensemble", name: "Ensemble/on", spec: func(sp *Spec) { sp.Ensemble = "on" }, want: sim.Options{Ensemble: sim.EnsembleOn}},
	{field: "Workers", cfg: Config{Workers: 2}, want: sim.Options{Workers: 2}},
	{field: "MaxBranches", json: "max_branches"},
	{field: "UpdateDelay", json: "update_delay"},
	{field: "Warmup", json: "warmup"},
	{field: "LenientFlow", json: "lenient_flow"},
	{field: "Batch", json: "batch"},
}

// TestServeOptionsContract crosses every sim.Options field with the
// daemon: honoured fields match the engine run directly, unreachable
// ones are refused. A new Options field without a row fails the test.
func TestServeOptionsContract(t *testing.T) {
	covered := map[string]bool{}
	for _, row := range optionsRows {
		covered[row.field] = true
	}
	ot := reflect.TypeOf(sim.Options{})
	for i := 0; i < ot.NumField(); i++ {
		if name := ot.Field(i).Name; !covered[name] {
			t.Errorf("sim.Options.%s has no row in optionsRows: say whether ev8serve honours or refuses it", name)
		}
	}

	for _, row := range optionsRows {
		name := row.name
		if name == "" {
			name = row.field
		}
		t.Run(name, func(t *testing.T) {
			srv := New(row.cfg)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			sp := testSpec()
			if row.json != "" {
				checkRefused(t, ts, sp, row.json)
				return
			}
			if row.spec != nil {
				row.spec(&sp)
			}
			cs, err := sp.compile(srv.cfg.Workers, srv.cfg.MaxCells)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cs.opts, row.want) {
				t.Errorf("spec compiles to %+v, want %+v", cs.opts, row.want)
			}
			_, events := streamEvents(t, ts, "alice", sp)
			last := events[len(events)-1]
			if last.Event != "result" {
				t.Fatalf("job failed: %+v", last)
			}
			pts, err := sweep.RunPool(cs.factory, cs.xs, cs.profs, cs.instr, row.want,
				sim.PoolOptions{Workers: row.want.Workers, Ensemble: row.want.Ensemble})
			if err != nil {
				t.Fatal(err)
			}
			var want []report.Run
			for _, p := range pts {
				want = append(want, report.FromResults(p.Results)...)
			}
			gotJSON, _ := json.Marshal(last.Runs)
			wantJSON, _ := json.Marshal(want)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("served runs differ from sweep.RunPool:\n%s\n---\n%s", gotJSON, wantJSON)
			}
		})
	}
}

// checkRefused submits sp with one extra top-level field, name, and
// expects 400 bad_spec.
func checkRefused(t *testing.T, ts *httptest.Server, sp Spec, name string) {
	t.Helper()
	var body map[string]any
	raw, _ := json.Marshal(sp)
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	body[name] = 1
	raw, _ = json.Marshal(body)
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Error *APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || out.Error == nil || out.Error.Code != "bad_spec" {
		t.Errorf("submitting %q: status %d error %+v, want 400 bad_spec", name, resp.StatusCode, out.Error)
	}
}
