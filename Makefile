# Convenience targets for the ev8pred repository. Everything is plain
# `go` underneath; the targets just encode the common invocations.

GO ?= go
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build vet staticcheck test race bench check report fuzz faultinject hotpath-gate ensemble-gate batch-gate trace-gate resume-gate bench-smoke shard-gate serve-gate pipeline-gate perf-harness-test examples clean

all: build vet test

# The full gate: static checks, build, the test suite under the race
# detector, then every named gate below and the benchmark smokes. CI
# runs the same targets, one step each, so that a regression fails
# loudly by name; each gate's test list is spelled out only here. The
# stream-pipeline tests run under -race in the blanket run;
# pipeline-gate reruns them by name in CI.
check:
	$(GO) vet ./...
	$(MAKE) staticcheck
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) hotpath-gate
	$(MAKE) ensemble-gate
	$(MAKE) batch-gate
	$(MAKE) trace-gate
	$(MAKE) resume-gate
	$(MAKE) shard-gate
	$(MAKE) serve-gate
	$(MAKE) perf-harness-test
	$(MAKE) bench-smoke

# Hot-path gate: the zero-allocation gates, without -race, where
# allocation accounting is exact — scalar and commit-delayed updates,
# ensembles, the batch kernels and every batch sim loop, delayed or
# not, with attribution off and on — and a smoke of the scalar and
# batch per-predictor microbenchmarks.
hotpath-gate:
	$(GO) test -run 'TestHotPathZeroAllocs|TestDelayedUpdateZeroAllocsSteadyState|TestEnsembleZeroAllocsSteadyState|TestBatchZeroAllocsSteadyState|TestBatchKernelZeroAllocs|TestEV8BatchZeroAllocsSteadyState|TestDelayedBatchZeroAllocsSteadyState' -count=1 -v .
	$(GO) test -bench=PredictUpdate -benchtime=100x -run '^$$' .

# Ensemble-equivalence gate: single-pass ensemble execution must be
# byte-identical to per-cell runs for every predictor family, benchmark
# and update delay, batch and per-branch members side by side. The
# options contract table rides along (every entry point honours each
# Options field or rejects it with a typed error, RunFrontEnd rejects
# multi-thread streams), and so does TestEnsembleSweepModesAgree: a
# pool sweep returns the same results under both schedules.
# TestRunCells* pins the pool itself: grouped and ungrouped jobs,
# progress, factory errors and cancellation.
ensemble-gate:
	$(GO) test -run 'TestEnsemble|TestEV8Ensemble|TestOptionsContract|TestRunFrontEndRejectsUnsupportedOptions|TestRunFrontEndRejectsMultiThread|TestRunCells' -count=1 -v . ./internal/sim/

# Batch-kernel gate: runs routed through the LookupBatch/UpdateBatch
# kernels must be byte-identical to the per-branch BatchOff reference
# (the scalar fused path, which default runs no longer take) for every
# BatchPredictor family — including the EV8 model, whose §6.2 bank
# sequencer is staged through the batched block contract — for every
# benchmark, warmup and branch budget. Commit-delayed runs are batched
# too (the lagged resolve, UpdateBatchLagged), so the TestDelayed*
# differentials cross delays longer than a chunk, solo and ensemble,
# with byte-identical delayed checkpoints. The closed-form skewing index
# (and each family's one index evaluator) must equal the primitive
# H/Hinv steps. The read-once instrumented update must count every
# attribution counter as the reference update does (every 2Bc-gskew
# preset and the EV8, both policies, delays 0/8/64, batch and scalar),
# and the counter arrays' stored index masks must address the same
# bits. The chunked front-end walk must match the record-at-a-time
# reference tracker, the per-thread walk (frontend.Threads) a map of
# reference trackers and each thread walked alone, with thread ids past
# the dense table in its sparse map, the EV8 block-log replay the
# reference sequencer, the EV8 linear index tables the xor trees, and a
# record that breaks its thread's flow must be a typed error at every
# entry point. The
# fuzz smokes drive random thread-interleaved streams at random delays
# through both schedules of the EV8 run, and random widths, banks and
# vectors through the skewing index (the EV8 smoke bounds minimising a
# new input to 5 s, which would otherwise take most of its 30 s); the
# walk's microbenchmarks must run.
batch-gate:
	$(GO) test -run 'TestBatch|TestEnsembleBatch|TestEV8Batch|TestEV8Ensemble|TestStagedIndex|TestLookupBatch|TestDelayedBatch|TestDelayedEnsembleBatch|TestIndexEvaluator|TestLinear|TestCompiled|TestFoldXOR|TestInstrumentedUpdate|TestCollect|TestStoredMask|TestSplitBits|TestChunkedWalk|TestThreads|TestWalkHugeGap|TestWalkFlowBreak|TestReplayMatchesReferenceSequencer|TestFlowBreakIsError' -count=1 -v . ./internal/core/ ./internal/ev8/ ./internal/frontend/ ./internal/sim/ ./internal/predictor/... ./internal/predictor/egskew/ ./internal/trace/ ./internal/skew/ ./internal/bitutil/ ./internal/counter/
	$(GO) test -fuzz FuzzEV8BatchBlockBoundaries -fuzztime 30s -fuzzminimizetime 5s -run '^$$' .
	$(GO) test -fuzz FuzzSkewBound -fuzztime 20s -run '^$$' ./internal/skew/
	$(GO) test -bench=Tracker -benchtime=100x -run '^$$' ./internal/frontend/

# Trace-integrity gate (docs/RELIABILITY.md): the exhaustive
# fault-injection suite (every truncation, every single-bit flip), the
# decoder's version-1 and version-2 truncation, corruption and I/O-error
# contracts, the source contract every trace.Source implementation is
# held to, and a short decoder fuzz smoke.
trace-gate:
	$(MAKE) faultinject
	$(GO) test -run 'TestV1|TestV2Detects|TestReaderPassesIOErrors|TestReaderTruncatedRecord|TestReaderNextStopsOnDecodeError' -count=1 -v ./internal/trace/
	$(GO) test -run 'TestSourceContract' -count=1 -v ./internal/sim/
	$(GO) test -fuzz FuzzReader -fuzztime 30s -run '^$$' ./internal/trace/

# Resume-and-cache gate: every Snapshotter family checkpointed,
# serialized, resumed and compared bit-for-bit against straight-through
# runs; cache hits byte-identical to recomputation, near-miss keys
# missing, corrupted entries and snapshots failing with typed errors
# (never a silently wrong restore), a warm suite building one predictor
# per configuration to key its cells; the restore bounds and the EV8's
# in-flight snapshots past the old ring depth; plus a short
# snapshot-decode fuzz smoke and a smoke of the warm-job benchmark.
resume-gate:
	$(GO) test -run 'TestResume|TestSnapshotMutants|TestCheckpointMutants|TestSnapshotWireGolden|TestCheckpointWireGolden' -count=1 -v .
	$(GO) test -run 'TestCache|TestSweepWarmCacheZeroWork|TestUncacheable' -count=1 -v .
	$(GO) test -run 'TestRestoreFailureLeavesTrackerUnchanged|TestRestoreRefuses|TestSnapRing|TestPairCodec' -count=1 -v ./internal/frontend/ ./internal/ev8/ ./internal/predictor/
	$(GO) test -count=1 ./internal/cache/ ./internal/snapshot/
	$(GO) test -fuzz FuzzSnapshotDecode -fuzztime 30s -run '^$$' .
	$(GO) test -bench=RunCellsWarm -benchtime=1x -run '^$$' ./internal/sim/

# Benchmark smokes the gates above do not run, so neither the
# testing.B paper-table harness nor the ensemble sweep benchmarks rot.
bench-smoke:
	$(GO) test -bench=Table1 -benchtime=1x -run '^$$' .
	$(GO) test -bench=Sweep -benchtime=1x -run '^$$' .

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond go vet, pinned so results are reproducible.
# Prefers a staticcheck binary on PATH; otherwise fetches the pinned
# version through `go run`, probing with -version first so a missing
# module proxy (offline/sandboxed builds) degrades to a loud skip
# instead of failing the gate. CI installs the pinned binary before
# `make check`, so the offline skip can never hide findings there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	elif $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./... ; \
	else \
		echo "staticcheck: pinned $(STATICCHECK_VERSION) unavailable (no binary on PATH, module proxy unreachable); skipping" ; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One testing.B benchmark per paper table/figure plus predictor
# throughput; -benchmem reports allocation behavior.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper (10M instructions per
# benchmark; the paper's full scale is -instructions 100000000).
report:
	$(GO) run ./cmd/ev8bench -experiment all -o bench_report.txt

# Short fuzz sessions over the trace codec, the fault-injection mutant
# space, and the snapshot/checkpoint wire format.
fuzz:
	$(GO) test -fuzz FuzzReader -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzRoundTrip -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzMutatedTrace -fuzztime 30s ./internal/trace/faultinject/
	$(GO) test -fuzz FuzzSnapshotDecode -fuzztime 30s -run '^$$' .

# Sharded-sweep determinism gate (docs/SHARDING.md): a small sweep split
# three ways across sequential worker invocations and merged must be
# byte-identical to the unsharded run (table and JSON), crash-recovered
# workers must pay only for unfinished cells, incomplete merges must
# fail loudly and typed, and the multi-process store discipline
# (idempotent unlinks, no lost puts, stale-temp sweeping) must hold.
shard-gate:
	$(GO) test -run 'TestShard|TestAssign|TestPlan|TestMerge|TestManifest' -count=1 ./internal/shard/ ./cmd/ev8sweep/ ./internal/experiments/
	$(GO) test -run 'TestCacheCrossProcessSharing' -count=1 .
	$(GO) test -run 'TestTwoStoresOneDirHammer|TestOpenCollectsOrphanedTemps|TestPutEntryWorldReadable|TestReadErrorIsNotAMiss' -count=1 ./internal/cache/

# Serving gate (docs/SERVING.md): the ev8serve daemon end to end under
# the race detector — concurrent tenants streaming NDJSON jobs whose
# results are byte-identical to direct engine runs, admission
# backpressure (typed 429/503), SIGTERM drain that finishes in-flight
# jobs with no goroutine leaks, per-server and per-job metric isolation
# (two servers in one process, drain counting each job once), the
# concurrently fed live.Progress, and the debug-listener page and
# close/shutdown regression tests.
serve-gate:
	$(GO) test -race -count=1 ./internal/serve/ ./cmd/ev8serve/
	$(GO) test -race -run 'TestServeDebug|TestConcurrentObserversIsolated|TestProgressMatchesRunCells' -count=1 ./internal/stats/live/

# Stream-pipeline gate (docs/PARALLELISM.md): under the race detector,
# runs whose generator runs ahead in a producer goroutine must equal
# direct runs (results, attribution counters and the generator's final
# position) for the EV8, 2Bc-gskew and gshare, solo and ensemble, over
# every benchmark, batch schedule, update delay and branch budget;
# cancellation must yield ErrCanceled, a producer panic must surface in
# the caller, no goroutine may leak, and allocations per run must not
# grow with the budget. The ensemble fill-sizing regression rides along.
pipeline-gate:
	$(GO) test -race -run 'TestPipeline|TestEnsembleFillStopsAtBudget' -count=1 -v ./internal/sim/

# The benchmark harness (cmd/ev8perf) is a module of its own, so ./...
# does not reach it; its tests pin the traced decomposition to the
# simulator's results.
perf-harness-test:
	$(GO) -C cmd/ev8perf vet ./...
	$(GO) -C cmd/ev8perf test ./...

# Exhaustive trace-corruption suite: every prefix truncation and every
# single-bit flip of a format-2 stream must surface a typed error.
faultinject:
	$(GO) test -run 'TestFault' -count=1 -v ./internal/trace/faultinject/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/compare
	$(GO) run ./examples/custom
	$(GO) run ./examples/smt
	$(GO) run ./examples/frontend

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
