# Targets mirror the CI jobs (.github/workflows/ci.yml); keep them in sync.

GO      ?= go
BIN     ?= bin
VETTOOL := $(BIN)/mdrep-lint

.PHONY: all build perfbench-build test race fuzz chaos walk obs flight sim shard lint lint-allow lint-fix vet fmt bench bench-json bench-gate clean

all: build perfbench-build lint test

build:
	$(GO) build ./...

# perfbench-build vets and compiles the end-to-end benchmark. perfbench/
# is a module of its own, so the root build and vet never compile it and
# an internal API change could break it unnoticed. The settings match
# perfbench/run.sh. Its tests start TCP rings and take about 45 s, so
# they are left to the benchmark's own runs.
perfbench-build:
	cd perfbench && GOFLAGS=-mod=readonly GOPROXY=off $(GO) vet . && \
		GOFLAGS=-mod=readonly GOPROXY=off $(GO) build -o /dev/null .

test:
	$(GO) test ./...

# race runs the whole suite under the race detector, then the signature
# checks, the evaluation exchange's TCP and codec tests, the
# daemon-versus-engine differential test and the DHT retrieve tests at
# one and four CPUs: eval.VerifyAll splits its checks by GOMAXPROCS,
# JudgeFile's R_f must keep the engine's bits either way, and retrieves
# share each node's remembered root arcs with Stabilize and upkeep.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=3 -cpu 1,4 -run 'Verify|Signed|Sync|Judge|Storage|Exchange|TrustRowMatchesEngine|Retrieve' \
		./internal/eval ./internal/peer ./internal/dht

# fuzz runs every fuzz target in the tree (outside vendor/ and the
# analyzer fixtures) for 10 s each, one target per go test run, as go
# test -fuzz requires. A failing input is written under the package's
# testdata/fuzz/ and fails the run.
fuzz:
	@set -e; for dir in $$(grep -rl --include='*_test.go' '^func Fuzz' . \
		| grep -v '^\./vendor/' | grep -v '/testdata/' | xargs -n1 dirname | sort -u); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$dir/*_test.go); do \
			echo "fuzz: $$dir $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s $$dir; \
		done; \
	done

# lint builds the repo's own go/analysis suite (cmd/mdrep-lint) and runs
# it through the go vet vettool protocol, then standard vet and gofmt.
lint: $(VETTOOL) vet fmt
	$(GO) vet -vettool=$(VETTOOL) ./...

$(VETTOOL): FORCE
	@mkdir -p $(BIN)
	$(GO) build -o $(VETTOOL) ./cmd/mdrep-lint

# lint-allow inventories every //mdrep:allow suppression in the tree
# (outside vendor/ and the analyzer fixtures, which exist to exercise
# the directive). Review the list in perf/correctness PRs: each line is
# a standing exception and must carry a reason after the colon.
lint-allow:
	@list="$$(grep -rn '//mdrep:allow [a-z]*: ' --include='*.go' . \
		| grep -v '^\./vendor/' | grep -v '/testdata/' \
		| grep -vE ':[0-9]+:[[:space:]]*//[[:space:]]' \
		| sed 's|^\./||')"; \
	if [ -n "$$list" ]; then echo "$$list"; fi; \
	echo "lint-allow: $$(printf '%s' "$$list" | grep -c .) suppression(s) outside fixtures"

# lint-fix applies the suite's suggested fixes (currently: faultwrap's
# fault.Terminal wrapping) in place. The vettool protocol has no -fix
# mode, so diagnostics are exported as JSON and replayed through the
# mdrep-lint -applyfix editor. Rerun make lint afterwards; some fixes
# (e.g. adding the fault import) may need a follow-up gofmt/goimports.
lint-fix: $(VETTOOL)
	$(GO) vet -vettool=$(VETTOOL) -json ./... | $(VETTOOL) -applyfix

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -s -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:" >&2; echo "$$out" >&2; exit 1; fi

# chaos runs the fault-schedule resilience suite under the race detector
# twice over (shaking out ordering flakes) and enforces the coverage gate
# on the DHT and chaos packages. The walk package rides along for its
# 50-schedule DHTSource fault suite.
chaos:
	$(GO) test -race -count=2 \
		-coverprofile=chaos.cover -coverpkg=mdrep/internal/dht,mdrep/internal/chaos,mdrep/internal/walk \
		mdrep/internal/chaos mdrep/internal/dht mdrep/internal/walk
	@total="$$($(GO) tool cover -func=chaos.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "combined coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t >= 80.0) ? 0 : 1 }' || { \
		echo "coverage $$total% is below the 80% gate" >&2; exit 1; }

# obs runs the observability layer under the race detector — the metrics
# registry, the tracer, and every instrumented package's obs tests — then
# the benchmark guard: counter Inc and histogram Observe must stay
# 0 B/op on the hot path (the TestHotPathZeroAlloc test enforces
# allocs == 0; the benchmarks here surface the actual ns/op and B/op).
obs:
	$(GO) test -race -run 'Obs|Observer|Instrument|Metrics|Histogram|Registry|Span|Tracer|Serve|Exchange|Exported' \
		mdrep/internal/metrics mdrep/internal/obs mdrep/internal/sparse \
		mdrep/internal/core mdrep/internal/journal mdrep/internal/dht \
		mdrep/internal/peer mdrep/internal/chaos mdrep/cmd/mdrep-peer
	$(GO) test -run '^$$' -bench 'BenchmarkCounterInc|BenchmarkHistogramObserve' \
		-benchmem mdrep/internal/metrics | tee /dev/stderr | \
		awk '/^Benchmark/ { if ($$(NF-3) != 0) { \
			print "FAIL: " $$1 " allocates " $$(NF-3) " B/op on the hot path" > "/dev/stderr"; exit 1 } }'

# flight runs the causal-tracing and flight-recorder suites under the
# race detector twice over, then enforces the recorder's steady-state
# allocation budget: the ring's Record hot path must stay at 0 B/op or
# an always-on recorder would tax every traced RPC.
flight:
	$(GO) test -race -count=2 mdrep/internal/flight \
		mdrep/internal/obs mdrep/internal/wire
	$(GO) test -race -count=2 -run 'Flight|Trace|Dump|Healthz' \
		mdrep/internal/dht mdrep/internal/chaos mdrep/cmd/mdrep-peer
	$(GO) test -run '^$$' -bench 'BenchmarkRingRecord' \
		-benchmem mdrep/internal/flight | tee /dev/stderr | \
		awk '/^Benchmark/ { if ($$(NF-3) != 0) { \
			print "FAIL: " $$1 " allocates " $$(NF-3) " B/op on the recorder hot path" > "/dev/stderr"; exit 1 } }'

# sim runs the massim adversarial scenario suite under the race
# detector twice over, then asserts the determinism contract the hard
# way: two CLI runs of every scenario at n=10k must be byte-identical,
# and so must two runs at n=2k with -baselines, which replay the
# rating log through EigenTrust, BLUE and the engine mirror.
sim:
	$(GO) test -race -count=2 mdrep/internal/massim
	$(GO) build -o $(BIN)/mdrep-sim ./cmd/mdrep-sim
	$(BIN)/mdrep-sim -exp massim -scenario all -n 10000 -seed 7 > $(BIN)/massim.a.txt
	$(BIN)/mdrep-sim -exp massim -scenario all -n 10000 -seed 7 > $(BIN)/massim.b.txt
	cmp $(BIN)/massim.a.txt $(BIN)/massim.b.txt
	$(BIN)/mdrep-sim -exp massim -scenario all -n 2000 -seed 7 -baselines > $(BIN)/massim-baselines.a.txt
	$(BIN)/mdrep-sim -exp massim -scenario all -n 2000 -seed 7 -baselines > $(BIN)/massim-baselines.b.txt
	cmp $(BIN)/massim-baselines.a.txt $(BIN)/massim-baselines.b.txt
	@echo "massim: scenario suite passed, reruns byte-identical"

# shard runs the sharded-engine suite under the race detector twice
# over. core.Sharded is the only concurrency facade and K=1 every
# caller's default, so it covers the K=1 proofs as well as K>1:
# shard-count invariance (K ∈ {1,2,8} bit-identical to a K=1 engine
# fed event by event), the hammer at K=1 and K=8, the engine metric
# series at K=1 and K=4, the cross-K parity tests at the mdrep and
# massim layers, the peer daemon's metrics over a one-shard journal,
# and the whole journal package: the one-shard crash suite (torn and
# garbage tails, snapshot fallback, WAL truncation at every byte
# offset) and per-shard recovery.
# The incremental rebuild suite (row store and TM patch against the map
# reference builders at K = 1 and 3, and the kept evaluator-list
# contract), the store's expiry bound and shard-count invariance run at
# -cpu 1,4: four procs reach the patch kernel's parallel path, and at
# K = 8 shard workers race for the same file's kept list.
shard:
	$(GO) test -race -count=2 -run 'Shard|WithShards|MirrorShards|SystemWithMetrics|EngineObserverCounts|MetricsEndpoint' \
		mdrep mdrep/internal/core mdrep/internal/massim mdrep/cmd/mdrep-peer
	$(GO) test -race -count=2 -cpu 1,4 \
		-run 'Incremental|CachedTM|NoOpRebuilds|HeldTM|PatchGOMAXPROCS|RestoredEngine|StoreExpired|WeightedSum|ShardCountInvariance' \
		mdrep/internal/core mdrep/internal/eval mdrep/internal/sparse
	$(GO) test -race -count=2 mdrep/internal/journal

# walk runs the Monte-Carlo reputation estimator suite under the race
# detector twice over: the cross-validation property tests against the
# exact RowVecPow kernel (including the E11 mean-error ≤ 0.05 bound at
# 16k walks on n=2000 graphs), the byte-reproducibility contract across
# GOMAXPROCS values, and the 50-schedule DHTSource chaos suite. Then it
# runs the estimator's contracts at one and four CPUs: the pinned
# estimate digest, the row-call order (each distinct row once, level by
# level, ascending, one call at a time), the abort at the failing level,
# and byte reproducibility. Four procs reach the parallel step path.
walk:
	$(GO) test -race -count=2 mdrep/internal/walk
	$(GO) test -race -count=2 -cpu 1,4 \
		-run 'BitsPinned|RowCallContract|AbortsOnRowError|ByteReproducible' mdrep/internal/walk

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-json snapshots the canonical benchmark suite as a dated JSON
# trajectory file (BENCH_<date>.json) via the cmd/mdrep-bench parser.
# Committing the file each perf PR turns performance claims into diffs.
# Each benchmark runs BENCH_COUNT times (shortened via BENCH_TIME so the
# suite stays fast) and the parser keeps the fastest run (min ns/op):
# scheduler interference on shared/single-core hosts only ever slows a
# run down, so min-of-N damps the noise a single long run cannot.
# Five repeats, not three: fsync-bound and sub-microsecond benchmarks
# still flapped past the 15% gate run-to-run at min-of-3 on 1-CPU hosts.
BENCH_LIST := BenchmarkTrustMatrixBuild|BenchmarkReputationQuery|BenchmarkFileJudgement|BenchmarkSparseMatMul|BenchmarkRMPowParallel|BenchmarkBuildTMIncremental|BenchmarkJournalAppend|BenchmarkRecovery|BenchmarkSystemIngest|BenchmarkSystemJudge|BenchmarkDHTLookup|BenchmarkDHTRetrieve|BenchmarkMassimStep|BenchmarkMassimEpoch|BenchmarkShardedApplyBatch|BenchmarkShardedRebuild|BenchmarkShardedIngest|BenchmarkWalkEstimate|BenchmarkWalkEstimateDHT|BenchmarkTCPRoundTrip|BenchmarkDHTFrameCodec|BenchmarkExchangeFetch|BenchmarkPeerSync|BenchmarkPeerTrustRow
BENCH_COUNT := 5
BENCH_TIME  := 0.5s

bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_LIST)' -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) \
		-benchmem mdrep mdrep/internal/dht mdrep/internal/massim mdrep/internal/walk \
		| $(GO) run ./cmd/mdrep-bench > BENCH_$$(date +%Y-%m-%d).json
	@echo "wrote BENCH_$$(date +%Y-%m-%d).json"

# bench-gate is the perf regression gate: rerun the canonical suite and
# fail if any benchmark's ns/op regressed more than 15% against the most
# recent committed BENCH_*.json snapshot (cmd/mdrep-bench -gate).
bench-gate:
	@base="$$(ls BENCH_*.json 2>/dev/null | sort | tail -1)"; \
	if [ -z "$$base" ]; then echo "bench-gate: no BENCH_*.json baseline committed" >&2; exit 1; fi; \
	echo "bench-gate: baseline $$base"; \
	$(GO) test -run '^$$' -bench '$(BENCH_LIST)' -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) \
		-benchmem mdrep mdrep/internal/dht mdrep/internal/massim mdrep/internal/walk \
		| $(GO) run ./cmd/mdrep-bench -gate "$$base"

clean:
	rm -rf $(BIN)

FORCE:
