# Convenience targets for the ev8pred repository. Everything is plain
# `go` underneath; the targets just encode the common invocations.

GO ?= go
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build vet staticcheck test race bench check report fuzz faultinject resume shard-gate serve-gate pipeline-gate perf-harness-test examples clean

all: build vet test

# The full gate CI runs: static checks, build, the test suite under the
# race detector, the hot-path zero-allocation gates (attribution off and
# on, without -race, where allocation accounting is exact), the trace
# fault-injection suite, a short decoder fuzz smoke, the ensemble
# differential suite (single-pass
# ensemble results must be byte-identical to per-cell runs, members on
# the batch and per-branch schedules side by side, and every entry point
# must honour each Options field or reject it with a typed error; the
# pool's TestRunCells* suite rides along), the
# RunFrontEnd multi-thread rejection, the
# resume-equivalence and cache-correctness suites (checkpointed-and-
# resumed runs and cache hits must be byte-identical to straight
# recomputation), the sharded-sweep gate (split/merge byte-identical to
# single-process, see shard-gate), the batch-kernel differential suite
# (runs routed through LookupBatch/UpdateBatch — including the EV8 model
# via the batched block contract, and commit-delayed runs via the lagged
# resolve — must be byte-identical to the scalar fused path, the closed-
# form skewing index must equal the primitive H/Hinv steps, the read-
# once instrumented update must count as the reference update does, with
# an EV8 block-boundary fuzz smoke at random delays and a skew-index fuzz
# smoke, and the chunked-walk, block-log replay, linear-index and
# flow-break differentials), a snapshot-decode
# fuzz smoke, the benchmark harness's own tests (see perf-harness-test),
# and benchmark smokes so neither the testing.B harness, the
# per-predictor microbenchmarks, the ensemble sweep benchmarks nor the
# tracker walk benchmarks can rot. The stream-pipeline tests run
# under -race in the blanket run; pipeline-gate reruns them by name for
# CI.
check:
	$(GO) vet ./...
	$(MAKE) staticcheck
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run 'TestHotPathZeroAllocs|TestDelayedUpdateZeroAllocsSteadyState|TestEnsembleZeroAllocsSteadyState|TestBatchZeroAllocsSteadyState|TestBatchKernelZeroAllocs|TestEV8BatchZeroAllocsSteadyState|TestDelayedBatchZeroAllocsSteadyState' -count=1 .
	$(GO) test -run 'TestEnsemble|TestEV8Ensemble|TestOptionsContract|TestRunFrontEndRejectsUnsupportedOptions|TestRunCells' -count=1 . ./internal/sim/
	$(GO) test -run 'TestRunFrontEndRejectsMultiThread' -count=1 ./internal/sim/
	$(GO) test -run 'TestBatch|TestEV8Batch|TestEV8Ensemble|TestStagedIndex|TestLookupBatch|TestDelayedBatch|TestDelayedEnsembleBatch|TestIndexEvaluator|TestLinear|TestCompiled|TestFoldXOR|TestInstrumentedUpdate|TestCollect|TestStoredMask|TestSplitBits|TestChunkedWalk|TestWalkHugeGap|TestWalkFlowBreak|TestReplayMatchesReferenceSequencer|TestFlowBreakIsError' -count=1 . ./internal/core/ ./internal/ev8/ ./internal/frontend/ ./internal/sim/ ./internal/predictor/... ./internal/predictor/egskew/ ./internal/trace/ ./internal/skew/ ./internal/bitutil/ ./internal/counter/
	$(GO) test -fuzz FuzzEV8BatchBlockBoundaries -fuzztime 30s -run '^$$' .
	$(GO) test -fuzz FuzzSkewBound -fuzztime 20s -run '^$$' ./internal/skew/
	$(GO) test -run 'TestFault' -count=1 ./internal/trace/faultinject/
	$(GO) test -fuzz FuzzReader -fuzztime 30s -run '^$$' ./internal/trace/
	$(GO) test -run 'TestResume' -count=1 .
	$(GO) test -run 'TestCache|TestSweepWarmCacheZeroWork|TestUncacheable|TestSnapshotMutants|TestCheckpointMutants' -count=1 .
	$(GO) test -count=1 ./internal/cache/ ./internal/snapshot/
	$(MAKE) shard-gate
	$(MAKE) serve-gate
	$(MAKE) perf-harness-test
	$(GO) test -fuzz FuzzSnapshotDecode -fuzztime 30s -run '^$$' .
	$(GO) test -bench=Table1 -benchtime=1x -run '^$$' .
	$(GO) test -bench=PredictUpdate -benchtime=100x -run '^$$' .
	$(GO) test -bench=Sweep -benchtime=1x -run '^$$' .
	$(GO) test -bench=Tracker -benchtime=100x -run '^$$' ./internal/frontend/

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

# Resume-equivalence and cache-correctness differentials: every
# Snapshotter family checkpointed, serialized, resumed and compared
# bit-for-bit against straight-through runs, plus the result-cache
# hit/near-miss/corruption/zero-work suites.
resume:
	$(GO) test -run 'TestResume|TestSnapshotMutants|TestCheckpointMutants' -count=1 -v .
	$(GO) test -run 'TestCache|TestSweepWarmCacheZeroWork|TestUncacheable' -count=1 -v .
	$(GO) test -count=1 ./internal/cache/ ./internal/snapshot/

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
