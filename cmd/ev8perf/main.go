// Command ev8perf is the simulator's benchmark: four workloads that each
// stress different layers, end-to-end metrics timed with tracing off, a
// separate traced run that splits host time per simulated branch into
// the generator, front-end, predictor and engine layers, and untimed
// cross-checks that every output is correct. See README.md for the
// workloads, the metrics and how to compare two runs.
//
// Usage:
//
//	ev8perf [-seed N] [-seconds S] [-trace 0|1] [-trace-out PATH] [-o FILE]
//	ev8perf -workload NAME -seed N -seconds S -trace 0|1 [-trace-out FILE]
//	ev8perf -compare BASE.json CANDIDATE.json
//
// Without -workload it runs every workload, each in a child process of
// its own (so peak RSS and GC state are per workload), prints one
// "workload metric value unit" line per metric and then the report as
// JSON. With -workload it runs that workload in-process and ends its
// output with one JSON line: correct, attempted, failed and the metrics
// BENCHMARK.json lists for the chosen mode.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"ev8pred/internal/cache"
	"ev8pred/internal/report"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// detailPrefix marks the stdout line on which a workload run hands its
// full report to the parent process.
const detailPrefix = "ev8perf-detail "

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	sz       sizes
	scratch  string // directory for the run's stores, removed afterwards
}

// workloadReport is everything one workload run measured.
type workloadReport struct {
	Workload      string        `json:"workload"`
	Seed          int64         `json:"seed"`
	Trace         bool          `json:"trace"`
	Correct       bool          `json:"correct"`
	Attempted     int64         `json:"attempted"`
	Failed        int64         `json:"failed"`
	ResultsSHA256 string        `json:"results_sha256"`
	Errors        []string      `json:"errors,omitempty"`
	Metrics       []metricValue `json:"metrics"`
}

// fileReport is the JSON document of a run over all workloads, with the
// machine it ran on.
type fileReport struct {
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	CPU        string           `json:"cpu"`
	Commit     string           `json:"commit"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Trace      bool             `json:"trace"`
	Workloads  []workloadReport `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ev8perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl       = fs.String("workload", "", "run only this workload, in this process ("+strings.Join(workloadNames, ", ")+")")
		seed     = fs.Int64("seed", 1, "workload seed: perturbs every benchmark profile's seed and draws the serve mix")
		seconds  = fs.Float64("seconds", 5, "how long each workload measures, after set-up")
		traceOn  = fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut = fs.String("trace-out", "", "traced run: write spans as Chrome trace-event JSON to this file (all workloads: PATH-<workload>.json)")
		outPath  = fs.String("o", "", "all workloads: write the JSON report here instead of stdout")
		compare  = fs.Bool("compare", false, "compare two reports: -compare BASE.json CANDIDATE.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "ev8perf: -compare needs two report files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*traceOn != 0 && *traceOn != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "ev8perf: want -trace 0 or 1, a positive -seconds and no positional arguments")
		return 2
	}
	cfg := runConfig{workload: *wl, seed: *seed, seconds: *seconds, trace: *traceOn == 1, traceOut: *traceOut, sz: fullSizes}
	if *wl == "" {
		return runAll(cfg, *outPath, stdout, stderr)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "ev8perf:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(".bench_build", "ev8perf-")
	if err != nil {
		fmt.Fprintln(stderr, "ev8perf:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	cfg.scratch = scratch
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "ev8perf: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := resultLine(rep)
	if err != nil {
		fmt.Fprintf(stderr, "ev8perf: %s: %v\n", cfg.workload, err)
		return 1
	}
	printLines(stdout, rep)
	detail, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "ev8perf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s%s\n%s\n", detailPrefix, detail, line)
	return 0
}

// newBench builds the named workload.
func newBench(cfg runConfig) (bench, error) {
	if cfg.workload == "serve_mixed" {
		dir, err := os.MkdirTemp(cfg.scratch, "serve-")
		if err != nil {
			return nil, err
		}
		return newServeBench(cfg.sz, cfg.seed, dir), nil
	}
	if b := newSimBench(cfg.workload, cfg.sz, cfg.seed); b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// runWorkload sets the workload up several times, then runs timed passes
// (or traced rounds) until cfg.seconds are spent — at least three passes,
// or one round — and finally the cross-checks.
func runWorkload(cfg runConfig) (workloadReport, error) {
	rep := workloadReport{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace}
	var traceFile *os.File
	if cfg.trace && cfg.traceOut != "" {
		// Created up front, so a bad path fails before the run, not after.
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return rep, err
		}
		defer f.Close()
		traceFile = f
	}
	b, err := newBench(cfg)
	if err != nil {
		return rep, err
	}
	defer b.close()
	var setups []float64
	for i := 0; i < cfg.sz.setups; i++ {
		t := time.Now()
		if err := b.setup(); err != nil {
			return rep, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	var passes []passResult
	var rounds []round
	minimum := 3
	if cfg.trace {
		minimum = 1
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for {
		// Each pass starts from a collected heap returned to the system,
		// so none pays for its predecessor's garbage, and its peak RSS is
		// its own.
		resetPeakRSS()
		t := time.Now()
		var p passResult
		if cfg.trace {
			r, err := b.tracedRound()
			if err != nil {
				rep.Errors = append(rep.Errors, err.Error())
				rep.Attempted++ // the pass that stopped counts as one failed op
				rep.Failed++
				break
			}
			rounds = append(rounds, r)
			p = r.pass
		} else if p, err = b.pass(); err != nil {
			rep.Errors = append(rep.Errors, err.Error())
			rep.Attempted++
			rep.Failed++
			break
		}
		p.peakRSS = peakRSSMB()
		passes = append(passes, p)
		if len(passes) >= minimum && time.Now().Add(time.Since(t)).After(deadline) {
			break
		}
	}
	if len(passes) == 0 {
		return rep, errors.New(strings.Join(rep.Errors, "; "))
	}
	for _, p := range passes {
		rep.Attempted += int64(p.ops)
		rep.Failed += int64(p.failed)
	}
	if err := b.check(passes); err != nil {
		// A mismatch leaves no op's result trustworthy.
		rep.Errors = append(rep.Errors, "cross-check: "+err.Error())
		rep.Failed = rep.Attempted
	}
	if rep.ResultsSHA256, err = passes[0].digest(); err != nil {
		return rep, err
	}

	if !cfg.trace {
		rep.Metrics = endToEnd(setups, passes, rep)
	} else {
		if rep.Metrics, err = perLayer(cfg, b, rounds); err != nil {
			return rep, err
		}
		if traceFile != nil {
			if err := writeChromeTrace(traceFile, cfg.workload, rounds[len(rounds)-1].tracers); err != nil {
				return rep, err
			}
			if err := traceFile.Close(); err != nil {
				return rep, fmt.Errorf("writing trace: %w", err)
			}
		}
	}
	rep.Correct = len(rep.Errors) == 0 && rep.Failed == 0
	return rep, nil
}

// endToEnd summarizes the timed passes. Other tenants of a shared
// machine only ever add time, in bursts of a second or more, so the
// timings take each timed unit's and each job's fastest pass: that
// estimates the simulator's own cost, where a median over passes follows
// the neighbours' load. Load also delays garbage collection and so
// raises the peak RSS; it takes the lowest pass. The quartiles are those
// of the per-pass values.
func endToEnd(setups []float64, passes []passResult, rep workloadReport) []metricValue {
	bestJobs := succeeded(fastest(passes, func(p passResult) []time.Duration { return p.jobs }))
	bestWall := rebuiltWall(fastest(passes, func(p passResult) []time.Duration { return p.units }), passes[0].lanes)
	branches := float64(passes[0].branches())
	var ns, p50, rate, mk, rss []float64
	for _, p := range passes {
		rss = append(rss, p.peakRSS)
		ns = append(ns, float64(p.wall.Nanoseconds())/branches)
		p50 = append(p50, median(millis(succeeded(p.jobs))))
		rate = append(rate, float64(len(p.jobs))/p.wall.Seconds())
		mk = append(mk, p.mispki())
	}
	jobMillis := millis(bestJobs)
	out := []metricValue{
		summarize("setup_s", setups),
		withValue(summarize("ns_per_branch", ns), float64(bestWall.Nanoseconds())/branches),
		withValue(summarize("job_p50_ms", p50), median(jobMillis)),
		withValue(summarize("peak_rss_mb", rss), slices.Min(rss)),
		withValue(summarize("jobs_per_s", rate), float64(len(bestJobs))/bestWall.Seconds()),
		summarize("mispki", mk),
		summarize("error_rate", []float64{float64(rep.Failed) / float64(rep.Attempted)}),
	}
	if tail, _, err := tailPercentile(jobMillis); err == nil {
		out = append(out, metricValue{Name: "job_p98_ms", Unit: "ms", Value: tail, Q1: tail, Q3: tail, N: len(jobMillis)})
	}
	return out
}

// fastest returns, position by position, the shortest of the passes'
// durations, skipping failed (negative) ones; a position no pass
// completed stays negative.
func fastest(passes []passResult, of func(passResult) []time.Duration) []time.Duration {
	best := append([]time.Duration(nil), of(passes[0])...)
	for _, p := range passes[1:] {
		for i, d := range of(p) {
			if d >= 0 && (best[i] < 0 || d < best[i]) {
				best[i] = d
			}
		}
	}
	return best
}

// rebuiltWall is the wall time of a pass made of the given unit times:
// unit i ran on lane i%lanes after that lane's earlier units, and the
// lanes ran side by side.
func rebuiltWall(units []time.Duration, lanes int) time.Duration {
	lanes = max(lanes, 1)
	sums := make([]time.Duration, lanes)
	for i, d := range units {
		if d > 0 {
			sums[i%lanes] += d
		}
	}
	var wall time.Duration
	for _, s := range sums {
		wall = max(wall, s)
	}
	return wall
}

func succeeded(ds []time.Duration) []time.Duration {
	var out []time.Duration
	for _, d := range ds {
		if d >= 0 {
			out = append(out, d)
		}
	}
	return out
}

func withValue(m metricValue, v float64) metricValue {
	m.Value = v
	return m
}

// perLayer summarizes the traced rounds, the values the workload measured
// outside them, and a timed round trip of the workload's results through
// a fresh cache store.
func perLayer(cfg runConfig, b bench, rounds []round) ([]metricValue, error) {
	samples := map[string][]float64{}
	for _, r := range rounds {
		for name, v := range r.values {
			samples[name] = append(samples[name], v)
		}
	}
	for name, v := range b.extras() {
		samples[name] = []float64{v}
	}
	keys, runs, err := b.cacheSet(rounds[len(rounds)-1].pass)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		gets, puts, err := cacheRoundTrip(cfg.scratch, keys, runs)
		if err != nil {
			return nil, err
		}
		samples["cache.get_us_p50"] = append(samples["cache.get_us_p50"], gets...)
		samples["cache.put_us_p50"] = append(samples["cache.put_us_p50"], puts...)
	}
	var out []metricValue
	for _, d := range metricDefs {
		if s, ok := samples[d.name]; ok && d.traced {
			out = append(out, summarize(d.name, s))
			delete(samples, d.name)
		}
	}
	for name := range samples {
		return nil, fmt.Errorf("measured %s, which has no definition", name)
	}
	return out, nil
}

// cacheRoundTrip puts every result into a fresh store under its key and
// gets it back, checking the entry survives intact; it returns the
// microseconds each Get and Put took.
func cacheRoundTrip(scratch string, keys []cache.Key, runs []report.Run) (gets, puts []float64, err error) {
	dir, err := os.MkdirTemp(scratch, "roundtrip-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	store, err := cache.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	for i, k := range keys {
		r := runs[i]
		e := &cache.Entry{Key: k, Predictor: r.Predictor, Workload: r.Workload, Branches: r.Branches,
			Mispredicts: r.Mispredicts, Instructions: r.Instructions, SizeBits: r.SizeBits}
		if r.Stats != nil {
			e.Stats = &r.Stats
		}
		t := time.Now()
		if err := store.Put(e); err != nil {
			return nil, nil, err
		}
		puts = append(puts, float64(time.Since(t).Nanoseconds())/1e3)
		t = time.Now()
		got, hit, err := store.Get(k)
		if err != nil || !hit {
			return nil, nil, fmt.Errorf("cache round trip: hit=%v err=%v", hit, err)
		}
		gets = append(gets, float64(time.Since(t).Nanoseconds())/1e3)
		if !reflect.DeepEqual(got, e) {
			return nil, nil, fmt.Errorf("cache round trip changed the entry for %s/%s", r.Predictor, r.Workload)
		}
	}
	return gets, puts, nil
}

// resetPeakRSS returns freed memory to the system and restarts the
// kernel's peak-RSS count at the current resident set (Linux; elsewhere
// the count keeps the process's peak).
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: see above
}

// peakRSSMB returns the peak resident set since the last resetPeakRSS, in
// MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(v, "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// resultLine renders the final line: the BENCHMARK.json metrics of the
// run's mode.
func resultLine(rep workloadReport) (string, error) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]vu{}
	for _, d := range metricDefs {
		if !d.inBenchmark || d.traced != rep.Trace {
			continue
		}
		found := false
		for _, m := range rep.Metrics {
			if m.Name == d.name {
				metrics[d.name], found = vu{m.Value, m.Unit}, true
			}
		}
		if !found {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	data, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	return string(data), err
}

// printLines prints one "workload metric value unit" line per metric.
func printLines(w io.Writer, rep workloadReport) {
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "%s %s %.6g %s\n", rep.Workload, m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%s results_sha256 %s\n", rep.Workload, rep.ResultsSHA256)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "%s error %s\n", rep.Workload, e)
	}
}

// runAll runs every workload in a child process of its own.
func runAll(cfg runConfig, outPath string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "ev8perf:", err)
		return 1
	}
	doc := fileReport{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), Commit: gitCommit(), Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	status := 0
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-trace", map[bool]string{false: "0", true: "1"}[cfg.trace]}
		if cfg.trace && cfg.traceOut != "" {
			args = append(args, "-trace-out", strings.TrimSuffix(cfg.traceOut, ".json")+"-"+name+".json")
		}
		var out bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "ev8perf: %s: %v\n", name, err)
			status = 1
			continue
		}
		rep, err := parseDetail(out.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "ev8perf: %s: %v\n", name, err)
			status = 1
			continue
		}
		printLines(stdout, rep)
		if !rep.Correct {
			status = 1
		}
		doc.Workloads = append(doc.Workloads, rep)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "ev8perf:", err)
		return 1
	}
	data = append(data, '\n')
	if outPath == "" {
		stdout.Write(data)
	} else if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fmt.Fprintln(stderr, "ev8perf:", err)
		return 1
	}
	return status
}

// parseDetail finds a child's report line.
func parseDetail(out []byte) (workloadReport, error) {
	var rep workloadReport
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			err := json.Unmarshal([]byte(line), &rep)
			return rep, err
		}
	}
	return rep, errors.New("child printed no report")
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns the commit the working tree is at, or "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
