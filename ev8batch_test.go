package ev8pred_test

// Differential suite for the EV8 batch path (docs/PERFORMANCE.md, "Batch
// kernel"): the EV8 model is a BlockObserver — its §6.2 bank sequencer
// advances on every fetch block, between branches — so its batch
// eligibility rides the batched block contract
// (predictor.BlockBatchObserver): the staged front-end walk captures the
// sequencer-dependent bank per branch at the exact scalar interleaving
// point, and the chunked index/resolve passes must reproduce the scalar
// fused path byte for byte — Result, attribution Stats (including the
// §6.2 physical-bank and fetch-cycle counters), snapshots and checkpoint
// record consumption.

import (
	"bytes"
	"fmt"
	"testing"

	"ev8pred"
	"ev8pred/internal/predictor"
	"ev8pred/internal/sim"
	"ev8pred/internal/trace"
)

type ev8BatchCase struct {
	name  string
	batch bool // implements predictor.BatchPredictor
	make  func() (ev8pred.Predictor, error)
}

// ev8BatchRoster is the EV8-mode roster: the as-shipped EV8 (both
// wordline variants — their staged index functions differ), the
// unconstrained ConfigEV8Size 2Bc-gskew, and the §9 cascade. The cascade
// is deliberately not a batch predictor: solo runs must fall back to
// scalar under BatchAuto, and ensembles must replay it per branch
// between its chunked siblings.
func ev8BatchRoster() []ev8BatchCase {
	addrWL := ev8pred.EV8Config{PartialUpdate: true}
	addrWL.Index.AddressOnlyWordline = true
	addrWL.Name = "ev8-addrwl"
	return []ev8BatchCase{
		{"ev8", true, func() (ev8pred.Predictor, error) { return ev8pred.NewEV8(), nil }},
		{"ev8-addrwl", true, func() (ev8pred.Predictor, error) { return ev8pred.NewEV8WithConfig(addrWL) }},
		{"2bcg-ev8size", true, func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.ConfigEV8Size()) }},
		{"cascade", false, func() (ev8pred.Predictor, error) {
			backup, err := ev8pred.NewPerceptron(256, 12)
			if err != nil {
				return nil, err
			}
			return ev8pred.NewCascade(ev8pred.NewEV8(), backup, 4096)
		}},
	}
}

// runEV8BatchPair runs one cold predictor per schedule — BatchAuto and
// BatchOff — over the same benchmark under the EV8 front end.
func runEV8BatchPair(t *testing.T, tc ev8BatchCase, bench string, instr int64, opts ev8pred.Options) (auto, off ev8pred.Result) {
	t.Helper()
	prof, err := ev8pred.BenchmarkByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode ev8pred.BatchMode) ev8pred.Result {
		p, err := tc.make()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.(predictor.BatchPredictor); ok != tc.batch {
			t.Fatalf("%s: BatchPredictor = %v, roster says %v", tc.name, ok, tc.batch)
		}
		o := opts
		o.Mode = ev8pred.ModeEV8()
		o.Batch = mode
		r, err := ev8pred.RunBenchmark(p, prof, instr, o)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	return run(ev8pred.BatchAuto), run(ev8pred.BatchOff)
}

// TestEV8BatchScalarEquivalent is the full matrix: the EV8-mode roster
// (including the non-batch cascade, whose BatchAuto runs must decline the
// kernel and still match), every benchmark, Collect on and off. Collect
// runs additionally pin the §6.2 scheduling counters: staged block
// observation must see every block and keep the physical banks
// conflict-free, exactly like scalar.
func TestEV8BatchScalarEquivalent(t *testing.T) {
	for _, tc := range ev8BatchRoster() {
		t.Run(tc.name, func(t *testing.T) {
			for _, prof := range ev8pred.Benchmarks() {
				for _, collect := range []bool{false, true} {
					opts := ev8pred.Options{Collect: collect}
					auto, off := runEV8BatchPair(t, tc, prof.Name, 50_000, opts)
					if !equalResult(auto, off) {
						t.Errorf("%s collect=%v: batch %+v != scalar %+v",
							prof.Name, collect, auto, off)
					}
					if auto.Branches == 0 {
						t.Errorf("%s: degenerate run (0 branches)", prof.Name)
					}
					// §6.2 scheduling counters exist on the instrumented EV8
					// variants only (the cascade is not stats-instrumented).
					if !collect || tc.name != "ev8" && tc.name != "ev8-addrwl" {
						continue
					}
					if auto.Stats == nil {
						t.Errorf("%s: Collect run returned no Stats", prof.Name)
						continue
					}
					if n, ok := auto.Stats.Get("blocks_observed"); !ok || n == 0 {
						t.Errorf("%s: blocks_observed = %d, %v; want > 0", prof.Name, n, ok)
					}
					if n, ok := auto.Stats.Get("phys_bank_conflicts"); !ok || n != 0 {
						t.Errorf("%s: phys_bank_conflicts = %d, %v; want 0", prof.Name, n, ok)
					}
				}
			}
		})
	}
}

// TestEV8BatchDelayEquivalent pins the lagged resolve on the EV8 over a
// whole benchmark: under commit delay the run takes the kernel (pinned by
// TestBatchEligibility in internal/sim) and matches the scalar ring's
// results, Stats included, at delays shorter and longer than a chunk.
func TestEV8BatchDelayEquivalent(t *testing.T) {
	tc := ev8BatchRoster()[0]
	for _, delay := range []int{1, 8, 64, 1500} {
		opts := ev8pred.Options{UpdateDelay: delay, Collect: true}
		auto, off := runEV8BatchPair(t, tc, "gcc", 50_000, opts)
		if !equalResult(auto, off) {
			t.Errorf("delay=%d: batch %+v != scalar %+v", delay, auto, off)
		}
	}
}

// TestEV8BatchWarmupEquivalent pins warmup lane masking under the EV8
// front end at boundaries that land mid-chunk and mid-word.
func TestEV8BatchWarmupEquivalent(t *testing.T) {
	tc := ev8BatchRoster()[0]
	for _, warmup := range []int64{1, 63, 64, 1000, 1025, 5000} {
		opts := ev8pred.Options{Warmup: warmup}
		auto, off := runEV8BatchPair(t, tc, "gcc", 100_000, opts)
		if !equalResult(auto, off) {
			t.Errorf("warmup=%d: batch %+v != scalar %+v", warmup, auto, off)
		}
	}
}

// TestEV8BatchMaxBranchesEquivalent pins the fill sizing: a branch budget
// landing mid-chunk or mid-word must measure the same branches on both
// schedules.
func TestEV8BatchMaxBranchesEquivalent(t *testing.T) {
	tc := ev8BatchRoster()[0]
	for _, max := range []int64{1, 100, 1023, 1024, 1500, 4096} {
		opts := ev8pred.Options{MaxBranches: max}
		auto, off := runEV8BatchPair(t, tc, "go", 10_000_000, opts)
		if !equalResult(auto, off) {
			t.Errorf("max=%d: batch %+v != scalar %+v", max, auto, off)
		}
		if auto.Branches != max {
			t.Errorf("max=%d: run measured %d branches", max, auto.Branches)
		}
	}
}

// TestEV8BatchOnEligibility pins the eligibility contract on the EV8
// surface: the EV8 — immediate or commit-delayed — meets both conditions
// for the kernel (predictor.BatchPredictor and the batched block
// contract), while the cascade around it forwards fetch blocks but has no
// kernel, so it runs per branch instead of failing, solo and in an
// ensemble with a batch member, matching the per-branch reference.
func TestEV8BatchOnEligibility(t *testing.T) {
	ev8, cascade := ev8BatchRoster()[0], ev8BatchRoster()[3]
	p, err := ev8.make()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(predictor.BatchPredictor); !ok {
		t.Error("EV8 does not implement predictor.BatchPredictor")
	}
	if _, ok := p.(predictor.BlockBatchObserver); !ok {
		t.Error("EV8 does not implement predictor.BlockBatchObserver")
	}
	c, err := cascade.make()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(predictor.BatchPredictor); ok {
		t.Error("cascade implements predictor.BatchPredictor")
	}
	if _, ok := c.(sim.BlockObserver); !ok {
		t.Error("cascade does not observe fetch blocks")
	}
	for _, delay := range []int{0, 1} {
		for _, tc := range []ev8BatchCase{ev8, cascade} {
			auto, off := runEV8BatchPair(t, tc, "gcc", 20_000, ev8pred.Options{UpdateDelay: delay})
			if !equalResult(auto, off) {
				t.Errorf("%s delay=%d: batch %+v != scalar %+v", tc.name, delay, auto, off)
			}
		}
	}
	prof, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	factories := []ev8pred.Factory{ev8.make, cascade.make}
	var got [2][]ev8pred.Result
	for i, mode := range []ev8pred.BatchMode{ev8pred.BatchAuto, ev8pred.BatchOff} {
		got[i], err = ev8pred.RunEnsembleBenchmark(factories, prof, 20_000,
			ev8pred.Options{Mode: ev8pred.ModeEV8(), Batch: mode})
		if err != nil {
			t.Fatalf("ensemble with cascade batch=%d: %v", mode, err)
		}
	}
	for j := range got[0] {
		if !equalResult(got[0][j], got[1][j]) {
			t.Errorf("ensemble member %d: batch %+v != scalar %+v", j, got[0][j], got[1][j])
		}
	}
}

// TestEV8EnsembleBatchScalarEquivalent covers the engine's mixed schedule
// under the EV8 front end: the batch-capable members (EV8 via staged
// banks, the unconstrained 2Bc-gskew via the plain kernel) resolve each
// chunk after the walk, while the cascade and an EV8 hidden behind the
// plain interface (a block observer without the batched block contract,
// which reads its live sequencer) run per branch inside it — against
// BatchOff and against independent per-cell runs, at immediate and
// commit-delayed update, comparing Results, Stats and predictor state.
func TestEV8EnsembleBatchScalarEquivalent(t *testing.T) {
	roster := append(ev8BatchRoster(), ev8BatchCase{"ev8-hidden", false, func() (ev8pred.Predictor, error) {
		return hideFused(ev8pred.NewEV8()), nil
	}})
	// state serializes a member's predictor, looking through the
	// hideFused wrapper; nil for a predictor that cannot snapshot.
	state := func(p ev8pred.Predictor) []byte {
		if u, ok := p.(*unfusedObserver); ok {
			p = u.p
		}
		if s, ok := p.(predictor.Snapshotter); ok {
			return s.SnapshotState()
		}
		return nil
	}
	for _, bench := range []string{"gcc", "li"} {
		prof, err := ev8pred.BenchmarkByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, delay := range []int{0, 8} {
			for _, collect := range []bool{false, true} {
				opts := ev8pred.Options{Mode: ev8pred.ModeEV8(), UpdateDelay: delay, Collect: collect}
				runEns := func(mode ev8pred.BatchMode) ([]ev8pred.Result, []ev8pred.Predictor) {
					built := make([]ev8pred.Predictor, len(roster))
					factories := make([]ev8pred.Factory, len(roster))
					for i, c := range roster {
						factories[i] = func() (ev8pred.Predictor, error) {
							p, err := c.make()
							built[i] = p
							return p, err
						}
					}
					o := opts
					o.Batch = mode
					rs, err := ev8pred.RunEnsembleBenchmark(factories, prof, 200_000, o)
					if err != nil {
						t.Fatal(err)
					}
					return rs, built
				}
				auto, autoPs := runEns(ev8pred.BatchAuto)
				off, offPs := runEns(ev8pred.BatchOff)
				for k, tc := range roster {
					where := fmt.Sprintf("%s delay=%d collect=%v member %s", bench, delay, collect, tc.name)
					if !equalResult(auto[k], off[k]) {
						t.Errorf("%s: batch %+v != scalar %+v", where, auto[k], off[k])
					}
					if !bytes.Equal(state(autoPs[k]), state(offPs[k])) {
						t.Errorf("%s: batch and scalar predictor state differ", where)
					}
					p, err := tc.make()
					if err != nil {
						t.Fatal(err)
					}
					solo, err := ev8pred.RunBenchmark(p, prof, 200_000, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !equalResult(auto[k], solo) {
						t.Errorf("%s: ensemble batch %+v != solo %+v", where, auto[k], solo)
					}
					if !bytes.Equal(state(autoPs[k]), state(p)) {
						t.Errorf("%s: ensemble and solo predictor state differ", where)
					}
				}
			}
		}
	}
}

// TestEV8BatchCheckpointEquivalent pins record-consumption parity for the
// EV8 model: checkpoints captured on either schedule must agree on
// Records and state, and resuming across the path boundary must
// reproduce the uninterrupted run — the §6.2 sequencer state serialized
// at the stop point is the same either way.
func TestEV8BatchCheckpointEquivalent(t *testing.T) {
	prof, err := ev8pred.BenchmarkByName("ijpeg")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ev8pred.NewWorkload(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	records := trace.Collect(g, 30_000)
	const stop = 7_777 // mid-chunk, mid-word
	capture := func(mode ev8pred.BatchMode) (ev8pred.Result, *ev8pred.Checkpoint) {
		opts := ev8pred.Options{Mode: ev8pred.ModeEV8(), MaxBranches: stop, Batch: mode}
		r, ck, err := ev8pred.RunCheckpoint(ev8pred.NewEV8(), trace.NewSlice(records), opts)
		if err != nil {
			t.Fatal(err)
		}
		return r, ck
	}
	rAuto, ckAuto := capture(ev8pred.BatchAuto)
	rOff, ckOff := capture(ev8pred.BatchOff)
	if !equalResult(rAuto, rOff) {
		t.Fatalf("checkpoint-run results diverge: %+v vs %+v", rAuto, rOff)
	}
	if ckAuto.Records != ckOff.Records {
		t.Fatalf("record consumption diverges: batch stopped at %d, scalar at %d",
			ckAuto.Records, ckOff.Records)
	}

	full, err := ev8pred.Run(ev8pred.NewEV8(), trace.NewSlice(records),
		ev8pred.Options{Mode: ev8pred.ModeEV8()})
	if err != nil {
		t.Fatal(err)
	}
	resume := func(ck *ev8pred.Checkpoint, mode ev8pred.BatchMode) ev8pred.Result {
		src := trace.NewSlice(records)
		if err := ev8pred.SkipRecords(src, ck.Records); err != nil {
			t.Fatal(err)
		}
		r, err := ev8pred.ResumeFrom(ev8pred.NewEV8(), src,
			ev8pred.Options{Mode: ev8pred.ModeEV8(), Batch: mode}, ck)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if got := resume(ckAuto, ev8pred.BatchOff); !equalResult(got, full) {
		t.Errorf("batch checkpoint + scalar resume %+v != full run %+v", got, full)
	}
	if got := resume(ckOff, ev8pred.BatchAuto); !equalResult(got, full) {
		t.Errorf("scalar checkpoint + batch resume %+v != full run %+v", got, full)
	}
}

// TestEV8BatchZeroAllocsSteadyState gates the allocation discipline of
// the EV8 batch paths: whole-run allocation counts at two stream lengths
// must be equal — the staged bank buffers, like all batch scratch, are
// per-run, never per-chunk or per-branch.
func TestEV8BatchZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	prof, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ev8pred.NewWorkload(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	records := trace.Collect(g, 16384)
	if len(records) < 16384 {
		t.Fatalf("collected only %d records", len(records))
	}

	t.Run("run", func(t *testing.T) {
		checkSteadyStateAllocs(t, "EV8 batch run loop", records, 4096, func(recs []ev8pred.Branch) {
			if _, err := ev8pred.Run(ev8pred.NewEV8(), trace.NewSlice(recs),
				ev8pred.Options{Mode: ev8pred.ModeEV8()}); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("ensemble", func(t *testing.T) {
		roster := ev8BatchRoster()
		checkSteadyStateAllocs(t, "EV8 ensemble batch loop", records, 4096, func(recs []ev8pred.Branch) {
			factories := make([]ev8pred.Factory, len(roster))
			for i, c := range roster {
				factories[i] = c.make
			}
			_, err := ev8pred.RunEnsemble(factories, trace.NewSlice(recs), ev8pred.Options{
				Mode: ev8pred.ModeEV8(),
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	})
}

// FuzzEV8BatchBlockBoundaries drives random thread-interleaved record
// streams through both schedules of the EV8 run, at a random update delay
// (0 to 1599, so longer than a chunk too). The staged front-end walk must
// form exactly the scalar fetch-block boundaries, and the lagged resolve
// must retire each update where the scalar ring does — every divergence
// is visible in the §6 counters (blocks_observed, fetch_cycles,
// phys_bank_use_k), the mispredict counts (bank assignment feeds every
// index), and the serialized sequencer and counter state.
func FuzzEV8BatchBlockBoundaries(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x00, 0x01, 0x02, 0x03}, uint16(1))
	f.Add(bytes.Repeat([]byte{0x81, 0x05, 0x11, 0x42, 0x03, 0x3f, 0x07, 0xc0}, 64), uint16(8))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x80, 0x20}, 600), uint16(0))     // one hot thread
	f.Add(bytes.Repeat([]byte{0x93, 0x02, 0x31, 0x15}, 4096), uint16(1500)) // delay > chunk
	f.Fuzz(func(t *testing.T, data []byte, d uint16) {
		if len(data) > 16384 {
			data = data[:16384]
		}
		delay := int(d % 1600)
		// Decode 4 bytes per record, keeping the stream's address
		// invariant (PC = previous NextPC + Gap*4) per thread so the
		// front end forms realistic fetch blocks.
		var nextPC [4]uint64
		for i := range nextPC {
			nextPC[i] = 0x10_0000 + uint64(i)<<20
		}
		var records []ev8pred.Branch
		for i := 0; i+4 <= len(data); i += 4 {
			thread := int(data[i] & 3)
			kind := trace.Cond
			if data[i]>>2&7 == 7 {
				kind = trace.Jump
			}
			taken := data[i]&0x80 != 0 || kind != trace.Cond
			gap := int(data[i+1] & 0x3f)
			pc := nextPC[thread] + uint64(gap)*4
			target := pc + 4 + uint64(data[i+2])*4
			if data[i+3]&1 == 1 && uint64(data[i+2])*4 < pc {
				target = pc - uint64(data[i+2])*4 // backward branch
			}
			b := ev8pred.Branch{PC: pc, Target: target, Taken: taken,
				Gap: gap, Kind: kind, Thread: thread}
			nextPC[thread] = b.NextPC()
			records = append(records, b)
		}
		run := func(mode ev8pred.BatchMode) (ev8pred.Result, []byte) {
			p := ev8pred.NewEV8()
			r, err := ev8pred.Run(p, trace.NewSlice(records),
				ev8pred.Options{Mode: ev8pred.ModeEV8(), UpdateDelay: delay, Collect: true, Batch: mode})
			if err != nil {
				t.Fatal(err)
			}
			return r, p.SnapshotState()
		}
		rBatch, sBatch := run(ev8pred.BatchAuto)
		rScalar, sScalar := run(ev8pred.BatchOff)
		if !equalResult(rBatch, rScalar) {
			t.Errorf("results diverge over %d records at delay %d: batch %+v != scalar %+v",
				len(records), delay, rBatch, rScalar)
		}
		if !bytes.Equal(sBatch, sScalar) {
			t.Errorf("predictor state diverges over %d records at delay %d: staged block walk or lagged resolve broke the lockstep",
				len(records), delay)
		}
	})
}
