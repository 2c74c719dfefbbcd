package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"ev8pred/internal/cache"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/report"
	"ev8pred/internal/serve"
	"ev8pred/internal/shard"
	"ev8pred/internal/sim"
	"ev8pred/internal/sweep"
	"ev8pred/internal/workload"
)

// serveBench is serve_mixed: the daemon's handler on a loopback listener
// with its own result store, driven by nproc closed-loop clients. Each
// pass gets a fresh copy of a store that set-up pre-warms with a 2-way
// sharded precompute of the 2bcg/history grid; 80% of the jobs ask for a
// part of that grid (every cell a hit), 20% for gshare/history at a
// budget no other job uses (every cell a miss).
type serveBench struct {
	sz       sizes
	seed     int64
	scratch  string // directory for stores and manifests, removed by close
	template string // the pre-warmed store each pass copies
	plan     *shard.Plan
	merged   []sim.Result
	jobs     []serve.Spec
	cold     []bool
	lastDir  string // store of the latest pass, kept for the cross-checks

	shardRun, shardMerge []float64 // per set-up, seconds
	unsharded            time.Duration
}

// servePass is the client side of one pass.
type servePass struct {
	jobs     []jobTiming
	rejected int   // 429/503 answers
	hits     int64 // the pass store's counters after the pass
	misses   int64
	readErrs int64
}

// jobTiming is one served job as its client saw it.
type jobTiming struct {
	submit, accepted, firstCell, lastCell, result time.Time
	runs                                          json.RawMessage // the result line's runs array, as sent
	err                                           error
}

func newServeBench(sz sizes, seed int64, scratch string) *serveBench {
	b := &serveBench{sz: sz, seed: seed, scratch: scratch}
	b.jobs, b.cold = serveMix(sz, seed)
	return b
}

// serveMix draws the job list from the seed: a fifth of the jobs (at
// random positions) are cold, the rest warm.
func serveMix(sz sizes, seed int64) ([]serve.Spec, []bool) {
	rng := rand.New(rand.NewSource(seed))
	names := workload.Names()[:sz.benchmarks]
	pick := func(from []string, k int) []string {
		idx := rng.Perm(len(from))[:k]
		sort.Ints(idx)
		out := make([]string, k)
		for i, j := range idx {
			out[i] = from[j]
		}
		return out
	}
	jobs := make([]serve.Spec, sz.serveJobs)
	cold := make([]bool, sz.serveJobs)
	for _, j := range rng.Perm(sz.serveJobs)[:sz.serveJobs/5] {
		cold[j] = true
	}
	for j := range jobs {
		if cold[j] {
			jobs[j] = serve.Spec{Scheme: "gshare", Param: "history", Values: []int{8 + rng.Intn(13)},
				Benchmarks: pick(names, min(2, len(names))), Instructions: sz.coldInstr + int64(j)}
			continue
		}
		xs := rng.Perm(len(historyGrid))[:1+rng.Intn(4)]
		sort.Ints(xs)
		values := make([]int, len(xs))
		for i, x := range xs {
			values[i] = historyGrid[x]
		}
		jobs[j] = serve.Spec{Scheme: "2bcg", Param: "history", Values: values,
			Benchmarks: pick(names, 1+rng.Intn(len(names))), Instructions: sz.gridInstr}
	}
	return jobs, cold
}

// setup pre-warms a store with the grid through two shard workers and a
// merge, then warms the serving path with the first jobs of the mix.
func (b *serveBench) setup() error {
	profs := workload.Benchmarks()[:b.sz.benchmarks]
	factory, err := sweep.FamilyFactory("2bcg", "history")
	if err != nil {
		return err
	}
	plan, err := shard.NewPlan(factory, historyGrid, profs, b.sz.gridInstr, sim.Options{Mode: frontend.ModeGhist()})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.scratch, "store-")
	if err != nil {
		return err
	}
	store, err := cache.Open(dir)
	if err != nil {
		return err
	}
	manifests, err := os.MkdirTemp(b.scratch, "manifests-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(manifests)
	t := time.Now()
	for i := 0; i < 2; i++ {
		if _, err := shard.RunShard(context.Background(), plan, shard.Spec{Index: i, Count: 2}, b.sz.gridInstr,
			sim.PoolOptions{Cache: store}, manifests); err != nil {
			return err
		}
	}
	b.shardRun = append(b.shardRun, time.Since(t).Seconds())
	t = time.Now()
	merged, err := shard.Merge(plan, manifests, store)
	if err != nil {
		return err
	}
	b.shardMerge = append(b.shardMerge, time.Since(t).Seconds())
	if b.template != "" {
		os.RemoveAll(b.template)
	}
	b.template, b.plan, b.merged = dir, plan, merged

	warm := b.jobs[:min(len(b.jobs), 20)]
	_, err = b.runJobs(warm, nil)
	return err
}

func (b *serveBench) pass() (passResult, error) { return b.runJobs(b.jobs, nil) }

// runJobs serves jobs to nproc closed-loop clients against a fresh server
// over a fresh copy of the pre-warmed store. tracers, when non-nil, get
// one span tree per job, one tracer per client.
func (b *serveBench) runJobs(jobs []serve.Spec, tracers []*tracer) (passResult, error) {
	dir, err := os.MkdirTemp(b.scratch, "pass-")
	if err != nil {
		return passResult{}, err
	}
	if err := copyDir(b.template, dir); err != nil {
		return passResult{}, err
	}
	store, err := cache.Open(dir)
	if err != nil {
		return passResult{}, err
	}
	srv := serve.New(serve.Config{Cache: store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return passResult{}, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	nproc := runtime.GOMAXPROCS(0)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	url := "http://" + ln.Addr().String() + "/v1/jobs"

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	timings := make([]jobTiming, len(jobs))
	rejected := make([]int, nproc)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := c; j < len(jobs); j += nproc {
				timings[j] = submit(client, url, fmt.Sprintf("client%d", c), jobs[j])
				var rej *rejection
				if errors.As(timings[j].err, &rej) {
					rejected[c]++
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&ms)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	derr := srv.Drain(ctx)
	if err := hs.Shutdown(ctx); err != nil && derr == nil {
		derr = err
	}
	if err := <-served; err != http.ErrServerClosed && derr == nil {
		derr = err
	}
	client.CloseIdleConnections()
	if derr != nil {
		return passResult{}, fmt.Errorf("stopping the server: %w", derr)
	}

	sp := &servePass{jobs: timings}
	for _, r := range rejected {
		sp.rejected += r
	}
	sp.hits, sp.misses, sp.readErrs, _ = store.Counts()
	// Each request is a timed unit; client c served requests c, c+nproc, ...
	// one after another, so the clients are the lanes.
	lat := make([]time.Duration, len(jobs))
	p := passResult{wall: wall, jobs: lat, units: lat, lanes: nproc, ops: len(jobs), mallocs: ms.Mallocs - before, serve: sp}
	for j, tm := range timings {
		var runs []report.Run
		if tm.err == nil {
			tm.err = json.Unmarshal(tm.runs, &runs)
			timings[j].err = tm.err
		}
		if tm.err != nil {
			fmt.Fprintf(os.Stderr, "ev8perf: serve_mixed job %d: %v\n", j, tm.err)
			p.failed++
			p.jobs[j] = -1
			continue
		}
		p.runs = append(p.runs, runs...)
		p.jobs[j] = tm.result.Sub(tm.submit)
		if tracers != nil {
			tr := tracers[j%nproc]
			root := tr.record("serve.job", tm.submit, tm.result, -1, j)
			tr.record("serve.admit", tm.submit, tm.accepted, root, j)
			tr.record("serve.cells", tm.accepted, tm.lastCell, root, j)
			tr.record("serve.tail", tm.lastCell, tm.result, root, j)
		}
	}
	if b.lastDir != "" {
		os.RemoveAll(b.lastDir)
	}
	b.lastDir = dir
	return p, nil
}

// rejection is a refused submission (429 or 503).
type rejection struct{ status int }

func (r *rejection) Error() string { return fmt.Sprintf("submission refused with HTTP %d", r.status) }

// submit posts one job and reads its NDJSON stream to the end.
func submit(client *http.Client, url, tenant string, spec serve.Spec) (tm jobTiming) {
	body, err := json.Marshal(spec)
	if err != nil {
		tm.err = err
		return tm
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		tm.err = err
		return tm
	}
	req.Header.Set("X-Tenant", tenant)
	tm.submit = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		tm.err = err
		return tm
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			tm.err = &rejection{status: resp.StatusCode}
		} else {
			tm.err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		return tm
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 64<<20)
	for sc.Scan() {
		now := time.Now()
		var ev struct {
			Event string          `json:"event"`
			Runs  json.RawMessage `json:"runs"`
			Error *serve.APIError `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			tm.err = fmt.Errorf("decoding stream line: %w", err)
			return tm
		}
		switch ev.Event {
		case "accepted":
			tm.accepted = now
		case "cell":
			if tm.firstCell.IsZero() {
				tm.firstCell = now
			}
			tm.lastCell = now
		case "result":
			tm.result, tm.runs = now, ev.Runs
			return tm
		case "error":
			tm.err = fmt.Errorf("job failed: %s: %s", ev.Error.Code, ev.Error.Message)
			return tm
		}
	}
	tm.err = fmt.Errorf("stream ended without a result: %v", sc.Err())
	return tm
}

// copyDir copies the regular files of src (a flat store directory) into
// dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// decomposeJob replays cold job j's cells through the decomposition, one
// benchmark group per benchmark, and returns its runs in the served
// order.
func (b *serveBench) decomposeJob(tr *tracer, j int) ([]report.Run, decomposed, error) {
	var total decomposed
	spec := b.jobs[j]
	factory, err := sweep.FamilyFactory(spec.Scheme, spec.Param)
	if err != nil {
		return nil, total, err
	}
	fs := make([]sim.Factory, len(spec.Values))
	for i, x := range spec.Values {
		fs[i] = func() (predictor.Predictor, error) { return factory(x) }
	}
	runs := make([]report.Run, len(spec.Values)*len(spec.Benchmarks))
	for bi, name := range spec.Benchmarks {
		prof, err := workload.ByName(name)
		if err != nil {
			return nil, total, err
		}
		d, err := decomposeGroup(tr, j, prof, spec.Instructions, fs, sim.Options{Mode: frontend.ModeGhist()})
		if err != nil {
			return nil, total, err
		}
		for xi := range spec.Values {
			runs[xi*len(spec.Benchmarks)+bi] = report.FromResult(d.results[xi])
		}
		total.records += d.records
		total.blocks += d.blocks
		total.branches += d.branches
	}
	return runs, total, nil
}

func (b *serveBench) tracedRound() (round, error) {
	nproc := runtime.GOMAXPROCS(0)
	epoch := time.Now()
	tracers := make([]*tracer, nproc+1)
	for i := range tracers {
		tracers[i] = newTracer(epoch, i)
	}
	p, err := b.runJobs(b.jobs, tracers[:nproc])
	if err != nil {
		return round{}, err
	}
	delivered := float64(p.branches())
	sp := p.serve
	var admit, first, tail []time.Duration
	for _, tm := range sp.jobs {
		if tm.err == nil {
			admit = append(admit, tm.accepted.Sub(tm.submit))
			first = append(first, tm.firstCell.Sub(tm.submit))
			tail = append(tail, tm.result.Sub(tm.lastCell))
		}
	}
	v := map[string]float64{
		"serve.admit_ms_p50":      median(millis(admit)),
		"serve.first_cell_ms_p50": median(millis(first)),
		"serve.tail_ms_p50":       median(millis(tail)),
		"serve.rejected":          float64(sp.rejected),
		"cache.hit_ratio":         float64(sp.hits) / float64(sp.hits+sp.misses),
		"cache.read_errors":       float64(sp.readErrs),
		"sim.allocs_per_branch":   float64(p.mallocs) / delivered,
	}

	// The cold tail is the only simulation the pass did; the
	// decomposition replays it, with spans on and off alternating which
	// goes first, and must reproduce what was served.
	dec := tracers[nproc]
	var on, off time.Duration
	var total decomposed
	c := 0
	for j := range b.jobs {
		if !b.cold[j] {
			continue
		}
		for k := 0; k < 2; k++ {
			traced := (c+k)%2 == 0
			var tr *tracer
			if traced {
				tr = dec
			}
			t := time.Now()
			runs, d, err := b.decomposeJob(tr, j)
			if err != nil {
				return round{}, err
			}
			if !traced {
				off += time.Since(t)
				continue
			}
			on += time.Since(t)
			var served []report.Run
			if err := json.Unmarshal(sp.jobs[j].runs, &served); err != nil || !reflect.DeepEqual(served, runs) {
				return round{}, fmt.Errorf("job %d: decomposition results differ from the served ones", j)
			}
			total.records += d.records
			total.blocks += d.blocks
			total.branches += d.branches
		}
		c++
	}
	v["trace.overhead_ns_per_branch"] = float64(on-off) / delivered
	addLayers(v, selfTimes(dec.spans), delivered, float64(p.wall.Nanoseconds())/delivered)
	v["workload.records_per_branch"] = float64(total.records) / float64(total.branches)
	v["frontend.blocks_per_branch"] = float64(total.blocks) / float64(total.branches)
	return round{values: v, pass: p, tracers: tracers}, nil
}

func (b *serveBench) cacheSet(passResult) ([]cache.Key, []report.Run, error) {
	keys := make([]cache.Key, len(b.plan.Cells))
	for i, c := range b.plan.Cells {
		keys[i] = c.Key
	}
	return keys, report.FromResults(b.merged), nil
}

// check confirms that passes agree, that every served job's runs are
// byte-identical to a direct sweep.RunPool of its spec (warm jobs through
// the pass's store, cold ones recomputed), and that the sharded
// precompute equals an unsharded run into a fresh store.
func (b *serveBench) check(passes []passResult) error {
	if err := samePasses(passes); err != nil {
		return err
	}
	if len(passes) == 0 {
		return nil
	}
	store, err := cache.Open(b.lastDir)
	if err != nil {
		return err
	}
	last := passes[len(passes)-1].serve
	for j, spec := range b.jobs {
		factory, err := sweep.FamilyFactory(spec.Scheme, spec.Param)
		if err != nil {
			return err
		}
		profs := make([]workload.Profile, len(spec.Benchmarks))
		for i, name := range spec.Benchmarks {
			if profs[i], err = workload.ByName(name); err != nil {
				return err
			}
		}
		pool := sim.PoolOptions{}
		if !b.cold[j] {
			pool.Cache = store
		}
		pts, err := sweep.RunPool(factory, spec.Values, profs, spec.Instructions, sim.Options{Mode: frontend.ModeGhist()}, pool)
		if err != nil {
			return fmt.Errorf("job %d direct run: %w", j, err)
		}
		var runs []report.Run
		for _, pt := range pts {
			runs = append(runs, report.FromResults(pt.Results)...)
		}
		want, err := json.Marshal(runs)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, last.jobs[j].runs) {
			return fmt.Errorf("job %d: served runs differ from a direct sweep.RunPool of its spec", j)
		}
	}

	fresh, err := os.MkdirTemp(b.scratch, "unsharded-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(fresh)
	fstore, err := cache.Open(fresh)
	if err != nil {
		return err
	}
	cells := make([]sim.Cell, len(b.plan.Cells))
	for i, c := range b.plan.Cells {
		cells[i] = c.Sim
	}
	t := time.Now()
	rs, err := sim.RunCells(context.Background(), cells, b.sz.gridInstr, sim.PoolOptions{Cache: fstore})
	if err != nil {
		return err
	}
	b.unsharded = time.Since(t)
	if !reflect.DeepEqual(report.FromResults(rs), report.FromResults(b.merged)) {
		return fmt.Errorf("sharded precompute differs from an unsharded run")
	}
	return nil
}

func (b *serveBench) extras() map[string]float64 {
	v := map[string]float64{
		"shard.run_s":    median(b.shardRun),
		"shard.merge_ms": 1e3 * median(b.shardMerge),
	}
	if b.unsharded > 0 {
		v["shard.overhead_ratio"] = (v["shard.run_s"] + v["shard.merge_ms"]/1e3) / b.unsharded.Seconds()
	}
	return v
}

func (b *serveBench) close() { os.RemoveAll(b.scratch) }
