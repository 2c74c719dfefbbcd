package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var testEpoch = time.Now()

// tinySizes runs every workload's code paths in well under a second.
var tinySizes = sizes{
	benchmarks:   2,
	table1Instr:  100_000,
	sweepInstr:   100_000,
	delayedInstr: 100_000,
	prefixInstr:  50_000,
	serveJobs:    20,
	gridInstr:    100_000,
	coldInstr:    20_000,
	setups:       2,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmokeEveryWorkload runs every workload, timed and traced, at tiny
// sizes: each must be correct with no failed op, measure every metric
// BENCHMARK.json lists for its mode, and emit only well-formed names.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			cfg := runConfig{workload: name, seed: 3, seconds: 0.01, trace: traced, sz: tinySizes, scratch: dir}
			if traced {
				cfg.traceOut = dir + "/trace.json"
			}
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v", name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
			}
			line, err := resultLine(rep)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var res struct {
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatal(err)
			}
			for n, m := range res.Metrics {
				if !nameRE.MatchString(n) || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: bad metric %q = %v", name, n, m.Value)
				}
			}
			for _, m := range rep.Metrics {
				if !nameRE.MatchString(m.Name) {
					t.Errorf("%s: emitted name %q", name, m.Name)
				}
			}
			if traced {
				data, err := os.ReadFile(cfg.traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []chromeEvent `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
					t.Fatalf("%s: trace file: %v, %d events", name, err, len(doc.TraceEvents))
				}
			}
			if entries, _ := os.ReadDir(dir); len(entries) > 1 {
				t.Errorf("%s: run left %d entries in its scratch directory", name, len(entries))
			}
		}
	}
}

// TestSameSeedSameResults: the seed alone decides the inputs.
func TestSameSeedSameResults(t *testing.T) {
	var shas []string
	for _, seed := range []int64{5, 5, 6} {
		rep, err := runWorkload(runConfig{workload: "table1_ev8", seed: seed, seconds: 0.01, sz: tinySizes, scratch: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		shas = append(shas, rep.ResultsSHA256)
	}
	if shas[0] != shas[1] || shas[0] == shas[2] {
		t.Errorf("results_sha256 by seed 5, 5, 6: %v", shas)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{7, 1, 3, 5, 9, 2}
	if m := median(xs); m != 4 {
		t.Errorf("median = %v, want 4", m)
	}
	// statistics.quantiles([1, 2, 3, 5, 7, 9], n=4) == [1.75, 4.0, 7.5]
	if q1, q3 := quartiles(xs); q1 != 1.75 || q3 != 7.5 {
		t.Errorf("quartiles = %v, %v; want 1.75, 7.5", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v", q1, q3)
	}

	var many []float64
	for i := 500; i >= 1; i-- {
		many = append(many, float64(i))
	}
	v, pct, err := tailPercentile(many)
	if err != nil || v != 490 || pct != 98 {
		t.Errorf("tail of 1..500 = %v (p%v, %v); want 490 with ten samples above, p98", v, pct, err)
	}
	v, _, err = tailPercentile(many[489:]) // 11 samples: 11..1
	if err != nil || v != 1 {
		t.Errorf("tail of 11 samples = %v, %v; want the smallest", v, err)
	}
	if _, _, err := tailPercentile(many[490:]); err == nil {
		t.Error("tail of 10 samples: want an error, no sample has ten above it")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "a", start: 20, end: 50, parent: 0},    // overlaps the first child
		{name: "b", start: 90, end: 120, parent: 0},   // runs past its parent
		{name: "leaf", start: 25, end: 28, parent: 2}, // grandchild of root
		{name: "other", start: 0, end: 40, parent: -1},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root":  100 - 40 - 10, // children cover [10,50) and [90,100)
		"a":     20 + 30 - 3,
		"b":     30,
		"leaf":  3,
		"other": 40,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerOff(t *testing.T) {
	var tr *tracer
	i := tr.begin("x", -1, 0)
	tr.end(i)
	if i != -1 {
		t.Errorf("nil tracer returned span %d", i)
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps the benchmark contract and
// the program's metric table in step.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	var e2e, layers []metricDef
	for _, d := range metricDefs {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q", d.name)
		}
		if d.inBenchmark && d.traced {
			layers = append(layers, d)
		} else if d.inBenchmark {
			e2e = append(e2e, d)
		}
	}
	if len(doc.EndToEnd) != len(e2e) || len(doc.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, program %d and %d",
			len(doc.EndToEnd), len(doc.PerLayer), len(e2e), len(layers))
	}
	for i, m := range doc.EndToEnd {
		d := e2e[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		d := layers[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program %+v", i, m, d)
		}
	}
}

func TestVerdict(t *testing.T) {
	ns, _ := defOf("ns_per_branch")
	rate := metricDef{name: "rate", better: "higher", bound: 0.1}
	mk, _ := defOf("mispki")
	mv := func(v, q1, q3 float64) metricValue { return metricValue{Value: v, Q1: q1, Q3: q3} }
	for _, c := range []struct {
		d          metricDef
		base, cand metricValue
		want       string
	}{
		{ns, mv(100, 99, 101), mv(130, 129, 131), "regressed"},
		{ns, mv(100, 99, 101), mv(90, 89, 91), "improved"},
		{ns, mv(100, 99, 101), mv(100.5, 100, 101), "within-noise"},
		{ns, mv(100, 80, 120), mv(100, 99, 101), "unresolved"},
		{rate, mv(100, 99, 101), mv(80, 79, 81), "regressed"},
		{rate, mv(100, 99, 101), mv(120, 119, 121), "improved"},
		{mk, mv(4, 4, 4), mv(4.0001, 4.0001, 4.0001), "changed"},
		{mk, mv(4, 4, 4), mv(4, 4, 4), "same"},
	} {
		if _, _, v := verdict(c.d, c.base, c.cand); v != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.d.name, c.base.Value, c.cand.Value, v, c.want)
		}
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-compare", "only-one.json"},
		{"stray"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestBestOfPasses(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		var out []time.Duration
		for _, x := range xs {
			out = append(out, time.Duration(x)*time.Millisecond)
		}
		return out
	}
	passes := []passResult{{units: ms(5, 9, -1, 4)}, {units: ms(7, 3, 6, -1)}}
	best := fastest(passes, func(p passResult) []time.Duration { return p.units })
	if want := ms(5, 3, 6, 4); !reflect.DeepEqual(best, want) {
		t.Fatalf("fastest = %v, want %v", best, want)
	}
	if got := rebuiltWall(best, 0); got != 18*time.Millisecond {
		t.Errorf("one lane: %v, want 18ms", got)
	}
	if got := rebuiltWall(best, 2); got != 11*time.Millisecond { // lanes 5+6 and 3+4
		t.Errorf("two lanes: %v, want 11ms", got)
	}
}
