GO ?= go
BENCHES = hotpath gather serve engine commitagg coll

.PHONY: build test vet race flake fuzz nodeprecated novhostclock noenginechoice bench benchsmoke apicheck ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the race detector over the concurrent hot paths: the packages
# the telemetry layer instruments, the pooled message buffers, the sharded
# NIC counters, the parallel TreeMatch partitioner, the fault-injection
# / ULFM recovery layer (deterministic injector + Revoke/Shrink/Agree),
# the monitoring daemon's concurrent ingest/read service, the
# commit-on-threshold aggregation layer (concurrent producers vs forced
# barrier flushes), the pml monitor (concurrent readers vs the recording
# rank), the reorder/online
# control loops (SPMD controllers stepping concurrently over all ranks),
# and the collective algorithm portfolio (per-callsite profiler shared by
# all ranks; cross-engine pins at np=256).
race:
	$(GO) test -race ./internal/telemetry ./internal/mpi ./internal/monitoring ./internal/netsim ./internal/netsim/event ./internal/treematch ./internal/faults ./internal/elastic ./internal/monsvc ./internal/commitagg ./internal/pml ./internal/reorder ./internal/online ./internal/coll

# flake reruns the packages whose tests assert on virtual clocks, at both
# GOMAXPROCS a 2-core host offers: a test that is only true on some host
# schedules fails here rather than one run in six in `make test`
# (ROADMAP item 1). The event engine's scheduler pins — cross-engine
# equivalence, exact dispatch counts, one live wake per wait, the bucket
# index against its model, no coroutine left behind — run at GOMAXPROCS 4
# as well: which rank runs next may not depend on it.
flake:
	$(GO) test -count=10 -cpu 1,2 ./internal/cg ./internal/exp ./internal/coll ./internal/online ./internal/reorder ./cmd/mpimon
	$(GO) test -count=10 -cpu 1,2,4 -run '^(TestEngineEquivalence|TestEventCountPinned|TestOneLiveWakePerWait|TestQueueAgainstModel|TestQueueSteadyStateAllocs|TestNoLeakedCoroutine|TestFig1LoopEventsPinned)$$' ./internal/mpi ./internal/reorder

# fuzz runs each fuzz target for a few seconds on top of its checked-in seed
# corpus (testdata/fuzz/, which plain `go test` already replays): the reduce
# kernels against the scalar oracle, the Bruck alltoallv frame decoder, the
# sparse row decoder, the monitoring daemon's ingest frame decoder and the
# matrix JSON reader against their invariants.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReduceInto$$' -fuzztime 5s ./internal/mpi
	$(GO) test -run '^$$' -fuzz '^FuzzBruckFrame$$' -fuzztime 5s ./internal/mpi
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRow$$' -fuzztime 5s ./internal/sparsemat
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s ./internal/monsvc
	$(GO) test -run '^$$' -fuzz '^FuzzReadMatrixJSON$$' -fuzztime 5s ./internal/monitoring

# nodeprecated keeps deprecated shims from regrowing: the repository has
# one function per operation, so nothing outside the tests may carry a
# Deprecated: marker.
nodeprecated:
	@! grep -rn 'Deprecated:' --include='*.go' --exclude='*_test.go' .

# novhostclock keeps the host's clock off the virtual-time path: the Fig. 1
# mapping is priced in virtual time (reorder.mappingCost), and nothing
# outside the tests of the packages below may read or wait on host time.
# internal/monitoring's export.go (the row exporter's commit-interval clock)
# is the one exception; internal/mpi joins once its goroutine engine and
# time.AfterFunc are gone (ROADMAP 1(d)).
novhostclock:
	@! grep -rnE 'time\.(Now|Since|After|AfterFunc|Sleep|NewTimer)\b' --include='*.go' --exclude='*_test.go' \
		internal/reorder internal/online internal/pml internal/netsim internal/coll internal/hwcount \
		internal/sparsemat internal/treematch internal/telemetry internal/monitoring | grep -v '^internal/monitoring/export\.go:'

# noenginechoice keeps the engine choice inside internal/mpi: every driver,
# tuner and experiment runs on the event engine (exp.newWorld, coll.Measure,
# cmd/mpimon), so outside their tests the packages above the runtime may name
# neither another engine nor the selector (ROADMAP item 1(d) deletes both).
noenginechoice:
	@! grep -rnE 'EngineByName|EngineGoroutine|EngineAutoThreshold' --include='*.go' --exclude='*_test.go' cmd internal/exp internal/coll internal/online internal/reorder internal/cg internal/stencil *.go

# apicheck pins the root package's exported API: the surface extracted by
# cmd/apisurface must match the golden listing in docs/api_surface.txt.
# After an intentional API change, regenerate it with
# `go run ./cmd/apisurface -update` and commit the diff.
apicheck:
	$(GO) run ./cmd/apisurface -check

# bench records every benchmark suite as results/BENCH_<suite>.json so
# the performance trajectory can be diffed commit to commit (see
# docs/PERFORMANCE.md); `make bench-<suite>` records one. A suite is a
# row of this table: the `go test` runs (extra flags, -bench pattern,
# package) whose output cmd/benchjson converts.
#   hotpath   send/recv micro (pool-hit allocation rate), reduce kernels vs the scalar oracle, TreeMatch kernels, collective layer
#   gather    sparse root-gather at np 256/1024/4096
#   serve     monitoring daemon ingest, views and frame codec
#   engine    event-engine stencil worlds at np 4096/16384/65536, abort unwinding at np 16384/65536
#   commitagg commit-on-threshold cells and batched row export
#   coll      collective algorithm portfolio
benchrun = $(GO) test -run '^$$' -bench '$(2)' -benchmem $(1) $(3)

hotpath_runs = $(call benchrun,,^Benchmark(SendRecv|ReduceKernel),./internal/mpi) && \
	$(call benchrun,,^(BenchmarkTreeMatch|BenchmarkTable1TreeMatchScale|BenchmarkPingPong|BenchmarkCollectives|BenchmarkBarrier48)$$,.)
gather_runs = $(call benchrun,-benchtime 1x,^BenchmarkGatherSparse$$,.)
serve_runs = $(call benchrun,,^(BenchmarkServeIngest|BenchmarkServeView|BenchmarkFrameCodec)$$,./internal/monsvc)
engine_runs = $(call benchrun,-benchtime 1x -timeout 30m,^(BenchmarkEventEngine|BenchmarkAbortUnwind)$$,.)
commitagg_runs = $(call benchrun,,^BenchmarkCommitAgg,./internal/commitagg) && \
	$(call benchrun,,^BenchmarkCommitAggRowExport$$,./internal/monitoring)
coll_runs = $(call benchrun,,^BenchmarkCollPortfolio$$,.)

bench: $(addprefix bench-,$(BENCHES))

bench-%:
	@tmp=$$(mktemp) && \
	{ $($*_runs); } | tee $$tmp && \
	$(GO) run ./cmd/benchjson -out results/BENCH_$*.json < $$tmp && \
	rm -f $$tmp && echo "wrote results/BENCH_$*.json"

# benchsmoke compiles and runs every benchmark exactly once so the harness
# cannot bit-rot; it measures nothing.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# ci is the gate for a change: static checks, full build, the whole test
# suite, the race tier on the instrumented packages, the flake tier on the
# clock-sensitive ones, a few seconds of every fuzz target, a one-iteration
# pass over every benchmark, the exported-API pin, the no-deprecated-shims
# check, the no-host-clock check on the virtual-time path and the
# no-engine-choice check on the drivers.
ci: vet build test race flake fuzz benchsmoke apicheck nodeprecated novhostclock noenginechoice
