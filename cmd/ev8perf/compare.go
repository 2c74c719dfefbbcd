package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict classifies one workload × metric of a comparison.
func verdict(d metricDef, base, cand metricValue) (delta, spread float64, v string) {
	// worse > 0 means the candidate moved in the metric's bad direction.
	delta = (cand.Value - base.Value) / base.Value
	worse := delta
	if d.better == "higher" {
		worse = -delta
	}
	spread = max((base.Q3-base.Q1)/base.Value, (cand.Q3-cand.Q1)/cand.Value)
	switch {
	case d.name == "mispki":
		// A simulated statistic: any change is a change of results.
		if cand.Value != base.Value {
			return delta, spread, "changed"
		}
		return delta, spread, "same"
	case spread > d.bound:
		return delta, spread, "unresolved"
	case worse > d.bound:
		return delta, spread, "regressed"
	case -worse > spread:
		return delta, spread, "improved"
	default:
		return delta, spread, "within-noise"
	}
}

// compareReports prints, for every workload and end-to-end metric, the
// median delta of cand against base next to the metric's bound, and
// fails when a metric regressed beyond its bound or results changed.
func compareReports(basePath, candPath string, stdout, stderr io.Writer) int {
	var reps [2]fileReport
	for i, path := range []string{basePath, candPath} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "ev8perf: reading %s: %v\n", path, err)
			return 1
		}
	}
	base, cand := reps[0], reps[1]
	if base.Seed != cand.Seed || base.Trace || cand.Trace {
		fmt.Fprintln(stderr, "ev8perf: -compare needs two timed runs (-trace 0) with the same seed")
		return 1
	}
	status := 0
	fmt.Fprintf(stdout, "%-20s %-14s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "base", "candidate", "delta", "bound", "spread", "verdict")
	for _, bw := range base.Workloads {
		var cw *workloadReport
		for i := range cand.Workloads {
			if cand.Workloads[i].Workload == bw.Workload {
				cw = &cand.Workloads[i]
			}
		}
		if cw == nil {
			fmt.Fprintf(stdout, "%-20s missing from %s\n", bw.Workload, candPath)
			status = 1
			continue
		}
		if bw.ResultsSHA256 != cw.ResultsSHA256 || !cw.Correct {
			fmt.Fprintf(stdout, "%-20s results_sha256 %.12s → %.12s correct=%v: results differ\n", bw.Workload, bw.ResultsSHA256, cw.ResultsSHA256, cw.Correct)
			status = 1
		}
		for _, d := range metricDefs {
			if d.bound == 0 && d.name != "mispki" {
				continue
			}
			b, okb := find(bw.Metrics, d.name)
			c, okc := find(cw.Metrics, d.name)
			if !okb || !okc {
				continue
			}
			delta, spread, v := verdict(d, b, c)
			if v == "regressed" || v == "changed" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-20s %-14s %12.6g %12.6g %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				bw.Workload, d.name, b.Value, c.Value, 100*delta, 100*d.bound, 100*spread, v)
		}
	}
	return status
}

func find(ms []metricValue, name string) (metricValue, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metricValue{}, false
}
