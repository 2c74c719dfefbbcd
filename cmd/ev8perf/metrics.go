package main

// metricDef defines one reported metric. The ones with inBenchmark set are
// BENCHMARK.json's end_to_end (bound > 0) and per_layer lists, in that
// file's order; the rest are printed for the workloads that have them.
type metricDef struct {
	name        string
	unit        string
	better      string // "lower" or "higher"
	bound       float64
	inBenchmark bool
	traced      bool // a per-layer metric, reported by the traced run
}

var metricDefs = []metricDef{
	// End to end, timed with tracing off.
	{"setup_s", "s", "lower", 0.25, true, false},
	{"ns_per_branch", "ns", "lower", 0.25, true, false},
	{"job_p50_ms", "ms", "lower", 0.25, true, false},
	{"peak_rss_mb", "MB", "lower", 0.20, true, false},
	// Not in BENCHMARK.json: jobs_per_s is ns_per_branch's reciprocal
	// for a fixed pass, and mispki is a simulated statistic that -compare
	// requires to repeat exactly but that moves with the seed.
	{"jobs_per_s", "1/s", "higher", 0, false, false},
	{"mispki", "misp/KI", "lower", 0, false, false},
	{"error_rate", "ratio", "lower", 0, false, false},
	{"job_p98_ms", "ms", "lower", 0, false, false},

	// Per layer, from the traced run; measured on every workload.
	{"workload.gen_ns_per_branch", "ns", "lower", 0, true, true},
	{"frontend.walk_ns_per_branch", "ns", "lower", 0, true, true},
	{"predictor.ns_per_branch", "ns", "lower", 0, true, true},
	{"sim.unattributed_ns_per_branch", "ns", "lower", 0, true, true},
	{"trace.overhead_ns_per_branch", "ns", "lower", 0, true, true},
	{"sim.allocs_per_branch", "allocs/branch", "lower", 0, true, true},
	{"workload.records_per_branch", "records/branch", "lower", 0, true, true},
	{"frontend.blocks_per_branch", "blocks/branch", "lower", 0, true, true},
	{"cache.get_us_p50", "us", "lower", 0, true, true},
	{"cache.put_us_p50", "us", "lower", 0, true, true},

	// Per layer, on the workloads that exercise the layer.
	{"ev8.index_ns_per_branch", "ns", "lower", 0, false, true},
	{"ev8.resolve_ns_per_branch", "ns", "lower", 0, false, true},
	{"core.index_ns_per_branch", "ns", "lower", 0, false, true},
	{"core.resolve_ns_per_branch", "ns", "lower", 0, false, true},
	{"gshare.index_ns_per_branch", "ns", "lower", 0, false, true},
	{"gshare.resolve_ns_per_branch", "ns", "lower", 0, false, true},
	{"predictor.fused_ns_per_branch", "ns", "lower", 0, false, true},
	{"pool.scaling_eff", "ratio", "higher", 0, false, true},
	{"ensemble.amortization", "ratio", "higher", 0, false, true},
	{"cache.hit_ratio", "ratio", "higher", 0, false, true},
	{"cache.read_errors", "count", "lower", 0, false, true},
	{"shard.run_s", "s", "lower", 0, false, true},
	{"shard.merge_ms", "ms", "lower", 0, false, true},
	{"shard.overhead_ratio", "ratio", "lower", 0, false, true},
	{"serve.admit_ms_p50", "ms", "lower", 0, false, true},
	{"serve.first_cell_ms_p50", "ms", "lower", 0, false, true},
	{"serve.tail_ms_p50", "ms", "lower", 0, false, true},
	{"serve.rejected", "count", "lower", 0, false, true},
}

// defOf returns the definition of a metric name.
func defOf(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metricValue is one metric of one workload run: the reported value (the
// median over passes, rounds or set-ups) with the quartiles and count of
// the samples it came from.
type metricValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize reports name over samples.
func summarize(name string, samples []float64) metricValue {
	d, _ := defOf(name)
	q1, q3 := quartiles(samples)
	return metricValue{Name: name, Unit: d.unit, Value: median(samples), Q1: q1, Q3: q3, N: len(samples)}
}
