GO ?= go

.PHONY: build test race vet cross-build kernels-widths fmt-check reachable loc experiments experiments-check fuzz-smoke bench-e2e bench-smoke profile-serial profile-sph profile-dist8 profile-dist64 smoke analyze-smoke fault-smoke live-smoke ledger-smoke serve-smoke one-slot widths ci all

all: build test vet fmt-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the whole tree (a few minutes on two cores).
race:
	$(GO) test -race ./...

# The rank scheduler's pool defaults to min(GOMAXPROCS, ranks) slots, so a
# 1-CPU host runs every world on one slot: a polling loop that does not
# Yield livelocks there and nowhere else. The timeout turns that into a
# failure.
one-slot:
	GOMAXPROCS=1 $(GO) test -count=1 -timeout 300s ./internal/mp ./internal/core ./internal/serve

# The virtual schedule must not depend on the width of the scheduler's pool:
# the force walk polls only inside a one-slot region entered in rank order,
# and the blocking phases around it are a function of the message DAG. The
# reproducibility, schedule-pin and region tests of core and mp, at four
# host widths (each pins or compares every rank clock and the makespan).
# The key sort, tree build, grouped walk and SPH tests below take their
# default width from par.Width, so the one host loop runs at four widths too.
widths:
	@for p in 1 2 4 8; do \
		echo "widths: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -count=1 -timeout 300s \
			-run '^(TestEventEngineReproducibleSchedule|TestSchedulePinnedAcrossTwoPassRewrite|TestEngineBitIdentical)$$' ./internal/core || exit 1; \
		GOMAXPROCS=$$p $(GO) test -count=1 -timeout 300s \
			-run '^(TestOneSlot.*|TestCollectivesBothEngines|TestEventEnginePointToPoint|TestEventEngineGather)$$' ./internal/mp || exit 1; \
		GOMAXPROCS=$$p $(GO) test -count=1 -timeout 300s -run '^TestSortPerm.*$$' ./internal/key || exit 1; \
		GOMAXPROCS=$$p $(GO) test -count=1 -timeout 300s \
			-run '^(TestBuildBitIdentical.*|TestGroupedWorkerCountInvariance|TestGroupedGoldenDigest)$$' ./internal/htree || exit 1; \
		GOMAXPROCS=$$p $(GO) test -count=1 -timeout 300s -run '^TestSimWorkersBitIdentical$$' ./internal/sph || exit 1; \
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

# One arithmetic at every width: the lane, list, allocation, digest and
# scaling tests of internal/gravity — the last three through htree's grouped
# walk and core.Run — once per kernel body, each forced through the
# test-only override (gravity.EachISA; a body this CPU lacks is skipped).
kernels-widths:
	@for isa in go avx2 avx512; do \
		echo "kernel bodies: $$isa"; \
		$(GO) test -count=1 -run "^(TestLanes|TestListEval|TestKernelAllocs|TestFallbackDigest|TestWidths)/^$$isa$$" ./internal/gravity || exit 1; \
	done

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
# slots, two eval workers a rank), one step per iteration through core.Run, run under the
# CPU and memory profilers and listed; then the split of the CPU samples by
# the `phase` label the rank runtime and the eval pool put on their
# goroutines, and the sites that allocate the most bytes.
profile-dist8 profile-dist64: profile-dist%:
	$(GO) test -run '^$$' -bench '^BenchmarkStep$$/^dist$*$$' -benchtime 30x \
		-cpuprofile /tmp/spacesim-dist$*.pprof -memprofile /tmp/spacesim-dist$*.mem \
		-o /tmp/spacesim-dist$*.test ./internal/core
	$(GO) tool pprof -top -nodecount 25 /tmp/spacesim-dist$*.test /tmp/spacesim-dist$*.pprof
	$(GO) tool pprof -tags -tagshow '^phase$$' /tmp/spacesim-dist$*.test /tmp/spacesim-dist$*.pprof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 15 /tmp/spacesim-dist$*.test /tmp/spacesim-dist$*.mem

# Writes a small trace + metrics pair from a short distributed run (the
# files' invariants are asserted on the same run by
# core.TestEngineMetricsPopulated).
smoke:
	$(GO) run ./cmd/spacesim -n 600 -procs 3 -steps 2 \
		-trace /tmp/spacesim-smoke-trace.json -metrics /tmp/spacesim-smoke-metrics.json

# Trace-analysis smoke: two quick analyze runs on the 2-module slice (each
# report is checked as it is written), then the perf gate judges the second
# against the first. The virtual schedule repeats at any pool width, so the
# two reports carry the same virtual headline and `ssbench diff` must exit 0.
analyze-smoke:
	$(GO) build -o /tmp/spacesim-smoke-ssbench ./cmd/ssbench
	/tmp/spacesim-smoke-ssbench analyze -quick -analysis-out /tmp/spacesim-smoke-analysis-a.json
	/tmp/spacesim-smoke-ssbench analyze -quick -analysis-out /tmp/spacesim-smoke-analysis-b.json
	/tmp/spacesim-smoke-ssbench diff /tmp/spacesim-smoke-analysis-a.json /tmp/spacesim-smoke-analysis-b.json

# Fault-injection smoke: a seeded fault-injected run that must crash at
# least once, recover through checkpoint rollback bit-identically to an
# uninterrupted twin, and emit a fault-annotated analysis report; then a
# quick checkpoint-cadence sweep at one and at two host cores. Each writer
# checks its artifact before writing it and exits nonzero when an invariant
# fails. A world with crashes scheduled runs on one slot, so the two sweeps
# must write the same file apart from its trailing provenance object.
fault-smoke:
	$(GO) run ./cmd/spacesim -n 600 -procs 4 -steps 6 \
		-faults 11 -fault-accel 3000 -verify-recovery \
		-report -analysis /tmp/spacesim-smoke-faults.json
	$(GO) build -o /tmp/spacesim-smoke-faultsweep ./cmd/ssbench
	@for p in 1 2; do \
		echo "fault-smoke: faultsweep at GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p /tmp/spacesim-smoke-faultsweep faultsweep -quick \
			-o /tmp/spacesim-smoke-faultsweep-$$p.json || exit 1; \
		sed '/^  "provenance": {/,$$d' /tmp/spacesim-smoke-faultsweep-$$p.json \
			> /tmp/spacesim-smoke-faultsweep-$$p.body || exit 1; \
	done
	@cmp /tmp/spacesim-smoke-faultsweep-1.body /tmp/spacesim-smoke-faultsweep-2.body || { \
		echo "fault-smoke: FAULTSWEEP.json differs between GOMAXPROCS=1 and 2"; exit 1; }

# Live-telemetry smoke: a run served over -http is probed while in flight
# (Prometheus exposition, the progress/ETA JSON, /series.json answering
# 404, and a 1-second CPU profile from net/http/pprof — so the run is sized
# to outlast the profile with margin: 60 steps of 30000 bodies, about 4 s on
# two cores, where 10 steps ended before the profile did); its analysis
# report, checked as spacesim writes it, must carry no live block.
live-smoke:
	$(GO) build -o /tmp/spacesim-live ./cmd/spacesim
	/tmp/spacesim-live -n 30000 -procs 4 -steps 60 -http 127.0.0.1:17071 \
		-report -analysis /tmp/spacesim-smoke-live.json >/tmp/spacesim-smoke-live.log & pid=$$!; \
	up=0; for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:17071/progress.json >/dev/null; then up=1; break; fi; sleep 0.1; done; \
	[ $$up = 1 ] || { echo "live-smoke: server never came up"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://127.0.0.1:17071/metrics | grep -q "# TYPE" || { echo "live-smoke: /metrics"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://127.0.0.1:17071/progress.json | grep -q '"eta_sec"' || { echo "live-smoke: /progress.json"; kill $$pid 2>/dev/null; exit 1; }; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:17071/series.json); \
	[ "$$code" = 404 ] || { echo "live-smoke: /series.json answered $$code, want 404"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf -o /tmp/spacesim-smoke-live.pprof "http://127.0.0.1:17071/debug/pprof/profile?seconds=1" || { echo "live-smoke: pprof"; kill $$pid 2>/dev/null; exit 1; }; \
	wait $$pid || exit 1; \
	test -s /tmp/spacesim-smoke-live.json || { echo "live-smoke: no report written"; exit 1; }; \
	if grep -q '"live"' /tmp/spacesim-smoke-live.json; then echo "live-smoke: the report carries a live block"; exit 1; fi

# Run-ledger smoke: two identical short spacesim runs recorded into a
# scratch ledger must stamp identical config digests (the digest covers only
# deterministic invocation parameters); the trend view (the same text as
# the live server's /runs) must print them as one group of 2 runs; and
# `trend -gate` on run B's config digest must judge B against A's record
# and pass (the virtual schedule repeats at any pool width).
ledger-smoke:
	$(GO) build -o /tmp/spacesim-smoke-ssbench ./cmd/ssbench
	$(GO) build -o /tmp/spacesim-smoke-spacesim ./cmd/spacesim
	rm -rf /tmp/spacesim-smoke-ledger
	/tmp/spacesim-smoke-spacesim -n 600 -procs 3 -steps 2 -report \
		-ledger /tmp/spacesim-smoke-ledger -analysis /tmp/spacesim-smoke-ledger-a.json
	/tmp/spacesim-smoke-spacesim -n 600 -procs 3 -steps 2 -report \
		-ledger /tmp/spacesim-smoke-ledger -analysis /tmp/spacesim-smoke-ledger-b.json
	@da=$$(grep -o '"config_digest": *"[0-9a-f]*"' /tmp/spacesim-smoke-ledger-a.json); \
	db=$$(grep -o '"config_digest": *"[0-9a-f]*"' /tmp/spacesim-smoke-ledger-b.json); \
	[ -n "$$da" ] && [ "$$da" = "$$db" ] || { echo "ledger-smoke: config digests differ: $$da vs $$db"; exit 1; }; \
	echo "ledger-smoke: identical config digests across both runs"
	/tmp/spacesim-smoke-ssbench trend -ledger /tmp/spacesim-smoke-ledger | tee /tmp/spacesim-smoke-ledger-trend.log
	@[ "$$(grep -c '^config ' /tmp/spacesim-smoke-ledger-trend.log)" = 1 ] \
		&& grep -q '^config .*  2 runs (latest ' /tmp/spacesim-smoke-ledger-trend.log \
		|| { echo "ledger-smoke: trend did not print one group of 2 runs"; exit 1; }
	@db=$$(sed -n 's/.*"config_digest": *"\([0-9a-f]*\)".*/\1/p' /tmp/spacesim-smoke-ledger-b.json); \
	/tmp/spacesim-smoke-ssbench trend -gate -ledger /tmp/spacesim-smoke-ledger -config "$$db" \
		> /tmp/spacesim-smoke-ledger-gate.log; code=$$?; cat /tmp/spacesim-smoke-ledger-gate.log; \
	[ $$code = 0 ] || { echo "ledger-smoke: trend -gate failed run B against run A"; exit 1; }; \
	grep -q '^config .*  2 runs (latest ' /tmp/spacesim-smoke-ledger-gate.log \
		|| { echo "ledger-smoke: trend -gate did not judge run B against run A's record"; exit 1; }

# Job-server smoke: the crash-safety story end to end. A spacesimd daemon
# takes a job, is killed -9 mid-run after its first checkpoint, and a
# restarted daemon replays the journal, resumes the job from the checkpoint
# (resumed_step > 0), and finishes it. A duplicate submission must then be a
# cache hit (asserted in the job record and the /metrics counter), a
# no_cache submission must recompute to the identical result digest, and a
# SIGTERM must drain the daemon to a zero exit.
serve-smoke:
	$(GO) build -o /tmp/spacesimd-smoke ./cmd/spacesimd
	rm -rf /tmp/spacesim-smoke-serve
	/tmp/spacesimd-smoke -addr 127.0.0.1:17073 -state /tmp/spacesim-smoke-serve \
		-workers 1 -ledger "" >/tmp/spacesim-smoke-serve.log 2>&1 & pid=$$!; \
	up=0; for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:17073/jobs >/dev/null; then up=1; break; fi; sleep 0.1; done; \
	[ $$up = 1 ] || { echo "serve-smoke: daemon never came up"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf -X POST http://127.0.0.1:17073/jobs \
		-d '{"n":6000,"ranks":4,"steps":10,"checkpoint_every":1,"seed":3}' >/dev/null \
		|| { echo "serve-smoke: submit failed"; kill -9 $$pid; exit 1; }; \
	ck=0; for i in $$(seq 1 100); do \
		if ls /tmp/spacesim-smoke-serve/jobs/*/ck-* >/dev/null 2>&1; then ck=1; break; fi; sleep 0.1; done; \
	[ $$ck = 1 ] || { echo "serve-smoke: no checkpoint appeared before the kill"; kill -9 $$pid; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null; \
	echo "serve-smoke: daemon killed -9 mid-job after its first checkpoint"
	/tmp/spacesimd-smoke -addr 127.0.0.1:17073 -state /tmp/spacesim-smoke-serve \
		-workers 1 -ledger "" >>/tmp/spacesim-smoke-serve.log 2>&1 & pid=$$!; \
	ok=0; for i in $$(seq 1 300); do \
		if curl -sf http://127.0.0.1:17073/jobs 2>/dev/null | grep -q '"state": "done"'; then ok=1; break; fi; sleep 0.2; done; \
	[ $$ok = 1 ] || { echo "serve-smoke: job never finished after restart"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://127.0.0.1:17073/jobs | grep -q '"resumed_step": [1-9]' \
		|| { echo "serve-smoke: restarted job recomputed instead of resuming"; kill $$pid; exit 1; }; \
	echo "serve-smoke: journal replayed, job resumed from its checkpoint"; \
	curl -sf -X POST http://127.0.0.1:17073/jobs \
		-d '{"n":6000,"ranks":4,"steps":10,"checkpoint_every":1,"seed":3}' >/dev/null \
		|| { echo "serve-smoke: duplicate submit failed"; kill $$pid; exit 1; }; \
	ok=0; for i in $$(seq 1 100); do \
		if [ "$$(curl -sf http://127.0.0.1:17073/jobs | grep -c '"state": "done"')" -ge 2 ]; then ok=1; break; fi; sleep 0.1; done; \
	[ $$ok = 1 ] || { echo "serve-smoke: duplicate job never finished"; kill $$pid; exit 1; }; \
	curl -sf http://127.0.0.1:17073/jobs | grep -q '"cache_hit": true' \
		|| { echo "serve-smoke: duplicate submission missed the cache"; kill $$pid; exit 1; }; \
	curl -sf http://127.0.0.1:17073/metrics | grep -q '^spacesim_serve_cache_hits 1' \
		|| { echo "serve-smoke: cache_hits counter not 1"; kill $$pid; exit 1; }; \
	echo "serve-smoke: duplicate submission was a cache hit"; \
	curl -sf -X POST http://127.0.0.1:17073/jobs \
		-d '{"n":6000,"ranks":4,"steps":10,"checkpoint_every":1,"seed":3,"no_cache":true}' >/dev/null \
		|| { echo "serve-smoke: no_cache submit failed"; kill $$pid; exit 1; }; \
	ok=0; for i in $$(seq 1 300); do \
		if [ "$$(curl -sf http://127.0.0.1:17073/jobs | grep -c '"state": "done"')" -ge 3 ]; then ok=1; break; fi; sleep 0.2; done; \
	[ $$ok = 1 ] || { echo "serve-smoke: no_cache job never finished"; kill $$pid; exit 1; }; \
	nd=$$(curl -sf http://127.0.0.1:17073/jobs | grep -o '"result_digest": "[0-9a-f]*"' | sort -u | wc -l); \
	[ "$$nd" -eq 1 ] || { echo "serve-smoke: $$nd distinct result digests across resumed/cached/recomputed runs, want 1"; kill $$pid; exit 1; }; \
	echo "serve-smoke: kill-9-resumed, cached, and no_cache-recomputed digests all identical"; \
	kill -TERM $$pid; wait $$pid \
		|| { echo "serve-smoke: drain exited nonzero"; exit 1; }; \
	echo "serve-smoke: SIGTERM drained cleanly (exit 0)"

# Full local CI pass: formatting, static checks, the reachability check, the
# arm64 cross-build, tests, race detector, the one-slot pass, the schedule at
# four pool widths, the per-width kernel pass, the benchmark's miniature runs, the observability +
# trace-analysis + fault-injection + live-telemetry + run-ledger + job-server
# smoke runs, the fuzz smoke, and the check that EXPERIMENTS.md's tables are
# what the registry prints.
ci: fmt-check vet reachable cross-build test race one-slot widths kernels-widths bench-smoke smoke analyze-smoke fault-smoke live-smoke ledger-smoke serve-smoke fuzz-smoke experiments-check
