GO ?= go

.PHONY: build fmt test vet race flake fuzz regen-fig6 nodeprecated novhostclock noenginechoice nocommitcells onecollpath benchsmoke apicheck ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails, listing the files, when any Go file is not gofmt-clean.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "not gofmt-clean:"; echo "$$files"; exit 1; fi

test:
	$(GO) test ./...

# race runs the race detector over the concurrent hot paths: the packages
# the telemetry layer instruments (per-rank counters and span logs scraped
# while the ranks write), the pooled message buffers, the sharded
# NIC counters, the parallel TreeMatch partitioner, the fault-injection
# / ULFM recovery layer (deterministic injector + Revoke/Shrink/Agree),
# the monitoring daemon's concurrent ingest/read service, the
# commit-on-threshold layer whose policy the row exporter batches by
# (concurrent producers vs forced barrier flushes), the pml monitor
# (concurrent readers vs the recording rank), the reorder/online
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
# index against its model, no coroutine left behind, every way out of a
# parked schedule cursor — run at GOMAXPROCS 4 as well: which rank runs next
# may not depend on it. So do the TreeMatch placement pins: MapTree sizes
# its worker pool by GOMAXPROCS, and no placement may depend on it. So do
# the span stream and the CG makespans, pinned under testdata/golden/ like
# the other pins of that line.
flake:
	$(GO) test -count=10 -cpu 1,2 ./internal/cg ./internal/exp ./internal/coll ./internal/online ./internal/reorder ./cmd/mpimon
	$(GO) test -count=10 -cpu 1,2,4 -run '^(TestEngineEquivalence|TestEventCountPinned|TestOneLiveWakePerWait|TestQueueAgainstModel|TestQueueSteadyStateAllocs|TestNoLeakedCoroutine|TestRingParkedExits|TestFig1LoopEventsPinned|TestCollectivesPinned|TestCappedPlacementsPinned|TestMapTreeParallelLargeMatchesReference|TestSpanStreamPinned|TestSkipInitEquivalence)$$' ./internal/mpi ./internal/reorder ./internal/treematch ./internal/cg

# fuzz runs each fuzz target for a few seconds on top of its checked-in seed
# corpus (testdata/fuzz/, which plain `go test` already replays): the reduce
# kernels against the scalar oracle, the Bruck alltoallv frame decoder, the
# sparse row decoder, the monitoring daemon's ingest frame decoder and the
# matrix JSON reader against their invariants, the telemetry span-log
# codec against an exact decode, and TreeMatch's MapTree and capped
# refinement pass against the kernel they replaced.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReduceInto$$' -fuzztime 5s ./internal/mpi
	$(GO) test -run '^$$' -fuzz '^FuzzBruckFrame$$' -fuzztime 5s ./internal/mpi
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRow$$' -fuzztime 5s ./internal/sparsemat
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s ./internal/monsvc
	$(GO) test -run '^$$' -fuzz '^FuzzReadMatrixJSON$$' -fuzztime 5s ./internal/monitoring
	$(GO) test -run '^$$' -fuzz '^FuzzSpanCodec$$' -fuzztime 5s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz '^FuzzMapTree$$' -fuzztime 5s ./internal/treematch

# regen-fig6 reruns the two Fig. 6 heat maps and compares each with its
# file under results/ byte for byte, printing the first line where they
# differ. They are the slowest exact figures, so TestResultsRegenerate
# leaves them out, and they are the output of the ring allgather path
# (AllgatherN under Split) end to end.
regen-fig6:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/exp" ./cmd/exp && \
	"$$tmp/exp" reorder-heatmap > "$$tmp/fig6_heatmap.tsv" && \
	"$$tmp/exp" reorder-heatmap -np 192 > "$$tmp/fig6_heatmap_np192.tsv" && \
	ok=0 && for f in fig6_heatmap.tsv fig6_heatmap_np192.tsv; do \
		$(FIRSTDIFF) "$$tmp/$$f" "results/$$f" || ok=1; \
	done && [ $$ok = 0 ] && \
	echo "results/fig6_heatmap.tsv and results/fig6_heatmap_np192.tsv regenerate"

# FIRSTDIFF run file prints file's name and the first line where run and
# file differ, as golden.Diff reports it, and exits 1; it exits 0 when they
# are equal.
FIRSTDIFF = awk 'NR == FNR { run[FNR] = $$0; n = FNR; next } \
	{ m = FNR } \
	FNR > n || run[FNR] != $$0 { d = 1; printf "%s: first difference at line %d:\n  got:  %s\n  want: %s\n", FILENAME, FNR, (FNR > n ? "<end>" : run[FNR]), $$0; exit } \
	END { if (!d && m < n) { d = 1; printf "%s: first difference at line %d:\n  got:  %s\n  want: <end>\n", FILENAME, m + 1, run[m + 1] } exit d }'

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

# nocommitcells keeps batching cells from coming back in front of the
# per-rank telemetry counters: each counter has one writer, so a plain
# atomic add is exact at every read and cheaper than a cell
# (docs/PERFORMANCE.md, "Telemetry counters and row export"). Outside the
# tests, nothing under cmd, internal or the root may build a commitagg
# Shard or Cell or register a registry flusher. bench/ is not scanned, and
# internal/commitagg defines these names unqualified.
nocommitcells:
	@! grep -rnE 'commitagg\.(NewShard|Shard|Cell)|AddFlusher' --include='*.go' --exclude='*_test.go' cmd internal *.go

# onecollpath keeps one path from a collective to the message layer: every
# collective but AlltoallvBruck is a schedule run by the interpreter of
# internal/mpi/coll_sched.go. AlltoallvBruck stays code because the sizes of
# its packed frames depend on the data that arrives. Outside the tests only
# the interpreter and the Bruck loop (coll_portfolio.go) enter the
# collective context.
onecollpath:
	@! grep -rn '\.collCtx()' --include='*.go' --exclude='*_test.go' . | grep -vE '^\./internal/mpi/(coll_sched|coll_portfolio)\.go:'

# apicheck pins the root package's exported API: the surface extracted by
# cmd/apisurface must match the golden listing in docs/api_surface.txt.
# After an intentional API change, regenerate it with
# `go run ./cmd/apisurface -update` and commit the diff.
apicheck:
	$(GO) run ./cmd/apisurface -check

# benchsmoke compiles and runs every benchmark exactly once so the harness
# cannot bit-rot; it measures nothing.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# ci is the gate for a change: the gofmt check, static checks, full build,
# the whole test suite, the race tier on the instrumented packages, the
# flake tier on the clock-sensitive ones, a few seconds of every fuzz
# target, the Fig. 6 heat maps regenerated byte for byte, a one-iteration
# pass over every benchmark, the exported-API pin, the no-deprecated-shims
# check, the no-host-clock check on the virtual-time path, the
# no-engine-choice check on the drivers, the no-commit-cells check on the
# telemetry counters and the one-collective-path check.
ci: fmt vet build test race flake fuzz regen-fig6 benchsmoke apicheck nodeprecated novhostclock noenginechoice nocommitcells onecollpath
