GO ?= go

.PHONY: build test race vet cross-build fmt-check reachable loc experiments experiments-check fuzz-smoke bench-e2e bench-smoke profile-serial profile-sph profile-dist8 profile-dist64 one-slot widths ci all

all: build test vet fmt-check

build:
	$(GO) build ./...

# Also the smoke tests (smoke_test.go): the three commands built once and
# run as processes in temporary directories, a daemon killed -9 and resumed.
test:
	$(GO) test ./...

# Race-detector pass over the whole tree (a few minutes on two cores),
# smoke tests included.
race:
	$(GO) test -race ./...

# The rank scheduler's pool defaults to min(GOMAXPROCS, ranks) slots, so a
# 1-CPU host runs every world on one slot: a polling loop that does not
# Yield livelocks there and nowhere else. The timeout turns that into a
# failure. internal/job runs whole jobs (probe, recovery) the same way.
one-slot:
	GOMAXPROCS=1 $(GO) test -count=1 -timeout 300s ./internal/mp ./internal/core ./internal/serve ./internal/job

# The virtual schedule must not depend on the width of the scheduler's pool:
# the force walk polls only inside a one-slot region entered in rank order,
# and the blocking phases around it are a function of the message DAG. The
# reproducibility, schedule-pin and region tests of core and mp, at four
# host widths (each pins or compares every rank clock and the makespan).
# The grouped walk and SPH tests below take their default width from
# par.Width, so the one host loop runs at four widths too (the key sort and
# the tree build run on the caller's goroutine and have no width); so do the
# grouped walk's runs of groups (TestGroupedWorkersBitIdentical),
# and the bound on a 64-rank world's goroutines, which scales with the width
# of the scheduler's pool (TestWorldGoroutinesBounded). The NPB kernels'
# result digest (TestNPBResultsPinned) must not move with the width either.
widths:
	@for p in 1 2 4 8; do \
		echo "widths: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -count=1 -timeout 300s \
			-run '^(TestEventEngineReproducibleSchedule|TestSchedulePinnedAcrossTwoPassRewrite|TestEngineBitIdentical|TestGroupedWorkersBitIdentical|TestWorldGoroutinesBounded|TestTraceReproducible)$$' ./internal/core || exit 1; \
		GOMAXPROCS=$$p $(GO) test -count=1 -timeout 300s \
			-run '^(TestOneSlot.*|TestCollectivesBothEngines|TestEventEnginePointToPoint|TestEventEngineGather|TestWakeOrderIsPutOrder)$$' ./internal/mp || exit 1; \
		GOMAXPROCS=$$p $(GO) test -count=1 -timeout 300s \
			-run '^(TestGroupedWorkerCountInvariance|TestGroupedGoldenDigest)$$' ./internal/htree || exit 1; \
		GOMAXPROCS=$$p $(GO) test -count=1 -timeout 300s -run '^TestSimWorkersBitIdentical$$' ./internal/sph || exit 1; \
		GOMAXPROCS=$$p $(GO) test -count=1 -timeout 300s -run '^TestNPBResultsPinned$$' ./internal/npb || exit 1; \
	done

# Also the asmdecl check of internal/gravity/lanes_amd64.s, AVX2 and AVX-512
# bodies alike: frame sizes and argument offsets against the Go declarations
# (the kernels take a pointer to a list of references and a count).
vet:
	$(GO) vet ./...

# The force kernels have assembly bodies on amd64 only; every other
# platform must still build, on the Go loops (math.FMA is one instruction
# there) and the stubs of lanes_other.go, and so must the oldest amd64
# baseline, where the bodies are chosen from CPUID at run time (works
# offline).
cross-build:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/gravity
	GOAMD64=v1 $(GO) build ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Every package under internal/ must be built into a command, an example or
# the benchmark, and every function, method, constant and variable outside
# _test.go files must have a caller outside them: TestReachable
# (reachable_test.go) parses the module with go/parser and names what fails,
# and its oracle table lists the few declarations other packages' tests keep.
# go test ./... runs it too.
reachable:
	$(GO) test -count=1 -run Reachable .

# The size figure every PR reports in CHANGES.md: non-test Go lines outside
# bench/, the core+htree+gravity subtotal of ROADMAP's deletion score, and
# the core+htree subtotal its item 6 is judged by.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l | tail -1 | awk '{print $$1, "non-test Go lines outside bench/"}'
	@find internal/core internal/htree internal/gravity -name '*.go' ! -name '*_test.go' | xargs wc -l | tail -1 | awk '{print $$1, "of them in internal/core + internal/htree + internal/gravity"}'
	@find internal/core internal/htree -name '*.go' ! -name '*_test.go' | xargs wc -l | tail -1 | awk '{print $$1, "of them in internal/core + internal/htree"}'

# EXPERIMENTS.md's paper-vs-reproduction tables are `ssbench all` at full
# size (about a minute), written between the file's two marker comments;
# ssbench exits 1, and the file is left alone, when a row leaves its band.
# experiments-check fails when the committed tables differ from a fresh run.
experiments:
	@grep -q '^<!-- exhibits:begin' EXPERIMENTS.md && grep -q '^<!-- exhibits:end' EXPERIMENTS.md
	$(GO) run ./cmd/ssbench all > .experiments.rows
	awk 'FNR == NR { rows = rows $$0 "\n"; next } \
		/^<!-- exhibits:end/ { printf "%s", rows; skip = 0 } \
		!skip { print } \
		/^<!-- exhibits:begin/ { skip = 1 }' .experiments.rows EXPERIMENTS.md > .experiments.md
	mv .experiments.md EXPERIMENTS.md
	rm .experiments.rows

experiments-check: experiments
	git diff --exit-code EXPERIMENTS.md

# Ten seconds of native fuzzing on each target — the run configuration and
# first body against core.Run, any bit pattern against the kernels'
# reciprocal square root, any sphere, cell, theta and scale against a sink
# group's acceptance test, small particle sets against the two-pass density
# oracle, any file against the checkpoint stripe reader, the checkpoint
# set scan, the ledger's JSONL reader, the analysis report reader and the
# job server's journal replay (offline; a failing input lands under the
# package's testdata/fuzz/).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRunConfig -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRsqrt -fuzztime 10s ./internal/gravity
	$(GO) test -run '^$$' -fuzz FuzzBucketMAC -fuzztime 10s ./internal/htree
	$(GO) test -run '^$$' -fuzz FuzzDensityScan -fuzztime 10s ./internal/sph
	$(GO) test -run '^$$' -fuzz FuzzReadStripe -fuzztime 10s ./internal/pario
	$(GO) test -run '^$$' -fuzz FuzzReplayJournal -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzReadJSONL -fuzztime 10s ./internal/obs/ledger
	$(GO) test -run '^$$' -fuzz FuzzReadReport -fuzztime 10s ./internal/obs/analysis

# The BENCHMARK.json benchmark (bench/README.md) on the seed it holds back
# for checking a claim, five fresh-process runs per workload. To judge a
# change, run it in two separate checkouts (parent, change) alternating
# which goes first, then `go run ./bench -compare A/record.json B/record.json`.
bench-e2e:
	$(GO) run ./bench -seed 2 -runs 5

# The benchmark's own checks on the fetch path, at miniature size: the three
# treecode workloads with 2048 bodies for two steps, end to end (-trace 0)
# and traced (-trace 1). The bench fails such a run (exit 1, `correct:
# false`) when the force error leaves its band, the energy drifts, or the
# traced run's forces differ from the plain run's. It writes only under
# /tmp: nothing under bench/ and no .bench_out in the checkout.
bench-smoke:
	@for w in plummer-serial plummer-dist8 coldsphere-dist64; do \
		for tr in 0 1; do \
			echo "bench-smoke: $$w -trace $$tr"; \
			$(GO) run ./bench -workload $$w -n 2048 -steps 2 -trace $$tr \
				-dir /tmp/spacesim-bench-smoke > /tmp/spacesim-bench-smoke.log 2>&1 \
				|| { cat /tmp/spacesim-bench-smoke.log; echo "bench-smoke: $$w -trace $$tr failed"; exit 1; }; \
			tail -1 /tmp/spacesim-bench-smoke.log | grep -q '^{"correct":true' \
				|| { cat /tmp/spacesim-bench-smoke.log; echo "bench-smoke: $$w -trace $$tr is not correct"; exit 1; }; \
		done; \
	done

# The one-rank budget in one command: BenchmarkStep/serial is bench/'s
# plummer-serial configuration (spacesim cannot be given MaxLeaf or Workers,
# and its default profile differs), one whole step per iteration, run under
# the CPU profiler and listed; then the split of the samples by `phase`
# (decompose and tree-* beside walk and eval).
profile-serial:
	$(GO) test -run '^$$' -bench '^BenchmarkStep$$/^serial$$' -benchtime 15x \
		-cpuprofile /tmp/spacesim-serial.pprof -o /tmp/spacesim-core.test ./internal/core
	$(GO) tool pprof -top -nodecount 25 /tmp/spacesim-core.test /tmp/spacesim-serial.pprof
	$(GO) tool pprof -tags -tagshow '^phase$$' /tmp/spacesim-core.test /tmp/spacesim-serial.pprof

# The SPH budget in one command: BenchmarkCollapseStep is bench/'s
# sph-collapse configuration (8000 particles, two workers), one Step() per
# iteration, run under the CPU profiler and listed; then the split of the
# samples by the `phase` label each SPH pass puts on its goroutines.
profile-sph:
	$(GO) test -run '^$$' -bench CollapseStep -benchtime 60x \
		-cpuprofile /tmp/spacesim-sph.pprof -o /tmp/spacesim-sph.test ./internal/sph
	$(GO) tool pprof -top -nodecount 25 /tmp/spacesim-sph.test /tmp/spacesim-sph.pprof
	$(GO) tool pprof -tags -tagshow '^phase$$' /tmp/spacesim-sph.test /tmp/spacesim-sph.pprof

# The many-rank budgets in one command each: BenchmarkStep/dist8 and
# BenchmarkStep/dist64 are bench/'s plummer-dist8 and coldsphere-dist64
# configurations (32768 bodies, 8 or 64 ranks, a host-wide pool of rank
# slots, two workers a rank), one step per iteration through core.Run, run
# under the CPU and memory profilers and listed; then the split of the CPU
# samples by the `phase` label the rank runtime puts on its goroutines —
# `eval` on the loops that gather and evaluate runs of sink groups, `walk` on
# the top walks, the polls and the charging around them — and the sites that
# allocate the most bytes.
profile-dist8 profile-dist64: profile-dist%:
	$(GO) test -run '^$$' -bench '^BenchmarkStep$$/^dist$*$$' -benchtime 30x \
		-cpuprofile /tmp/spacesim-dist$*.pprof -memprofile /tmp/spacesim-dist$*.mem \
		-o /tmp/spacesim-dist$*.test ./internal/core
	$(GO) tool pprof -top -nodecount 25 /tmp/spacesim-dist$*.test /tmp/spacesim-dist$*.pprof
	$(GO) tool pprof -tags -tagshow '^phase$$' /tmp/spacesim-dist$*.test /tmp/spacesim-dist$*.pprof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 15 /tmp/spacesim-dist$*.test /tmp/spacesim-dist$*.mem

# Full local CI pass: formatting, static checks, the reachability check, the
# arm64 cross-build, tests (smoke tests included), race detector, the
# one-slot pass, the schedule at four pool widths, the per-width kernel pass,
# the benchmark's miniature runs, the fuzz smoke, and the check that
# EXPERIMENTS.md's tables are what the registry prints.
ci: fmt-check vet reachable cross-build test race one-slot widths bench-smoke fuzz-smoke experiments-check
