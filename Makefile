GO ?= go

.PHONY: build test race vet cross-build kernels-widths fmt-check loc experiments experiments-check fuzz-smoke bench-e2e profile-serial profile-sph profile-dist8 profile-dist64 smoke analyze-smoke fault-smoke live-smoke ledger-smoke serve-smoke one-slot ci all

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
# oracle, any file against the checkpoint stripe reader and the job server's
# journal replay (offline; a failing input lands under the package's
# testdata/fuzz/).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRunConfig -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRsqrt -fuzztime 10s ./internal/gravity
	$(GO) test -run '^$$' -fuzz FuzzBucketMAC -fuzztime 10s ./internal/htree
	$(GO) test -run '^$$' -fuzz FuzzDensityScan -fuzztime 10s ./internal/sph
	$(GO) test -run '^$$' -fuzz FuzzReadStripe -fuzztime 10s ./internal/pario
	$(GO) test -run '^$$' -fuzz FuzzReplayJournal -fuzztime 10s ./internal/serve

# The BENCHMARK.json benchmark (bench/README.md) on the seed it holds back
# for checking a claim, five fresh-process runs per workload. To judge a
# change, run it in two separate checkouts (parent, change) alternating
# which goes first, then `go run ./bench -compare A/record.json B/record.json`.
bench-e2e:
	$(GO) run ./bench -seed 2 -runs 5

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
# configurations (32768 bodies, 8 or 64 ranks, one engine thread, two pool
# workers a rank), one step per iteration through core.Run, run under the
# CPU profiler and listed; then the split of the samples by the `phase`
# label the rank runtime and the eval pool put on their goroutines.
profile-dist8 profile-dist64: profile-dist%:
	$(GO) test -run '^$$' -bench '^BenchmarkStep$$/^dist$*$$' -benchtime 30x \
		-cpuprofile /tmp/spacesim-dist$*.pprof -o /tmp/spacesim-dist$*.test ./internal/core
	$(GO) tool pprof -top -nodecount 25 /tmp/spacesim-dist$*.test /tmp/spacesim-dist$*.pprof
	$(GO) tool pprof -tags -tagshow '^phase$$' /tmp/spacesim-dist$*.test /tmp/spacesim-dist$*.pprof

# Generates a small trace + metrics pair from a short distributed run and
# schema-validates both files with the tracecheck tool.
smoke:
	$(GO) run ./cmd/spacesim -n 600 -procs 3 -steps 2 \
		-trace /tmp/spacesim-smoke-trace.json -metrics /tmp/spacesim-smoke-metrics.json
	$(GO) run ./cmd/tracecheck \
		-trace /tmp/spacesim-smoke-trace.json -metrics /tmp/spacesim-smoke-metrics.json

# Trace-analysis smoke: a quick analyze run on the 2-module slice,
# schema-validation of the report, and a self-diff (which must pass — the
# no-op case of the CI perf gate).
analyze-smoke:
	$(GO) run ./cmd/ssbench analyze -quick -analysis-out /tmp/spacesim-smoke-analysis.json
	$(GO) run ./cmd/tracecheck -analysis /tmp/spacesim-smoke-analysis.json
	$(GO) run ./cmd/ssbench diff /tmp/spacesim-smoke-analysis.json /tmp/spacesim-smoke-analysis.json

# Fault-injection smoke: a seeded fault-injected run that must crash at
# least once, recover through checkpoint rollback bit-identically to an
# uninterrupted twin, and emit a fault-annotated analysis report; then a
# quick checkpoint-cadence sweep. Both artifacts are schema-validated.
fault-smoke:
	$(GO) run ./cmd/spacesim -n 600 -procs 4 -steps 6 \
		-faults 11 -fault-accel 3000 -verify-recovery \
		-report -analysis /tmp/spacesim-smoke-faults.json
	$(GO) run ./cmd/ssbench faultsweep -quick -o /tmp/spacesim-smoke-faultsweep.json
	$(GO) run ./cmd/tracecheck -analysis /tmp/spacesim-smoke-faults.json \
		-faultsweep /tmp/spacesim-smoke-faultsweep.json

# Live-telemetry smoke: a run served over -http is probed while in flight
# (Prometheus exposition, the progress/ETA JSON, and a 1-second CPU profile
# from net/http/pprof — so the run is sized to last a few seconds), then its
# analysis report, which carries the sampler's final series dump, is
# schema-validated, live block included.
live-smoke:
	$(GO) build -o /tmp/spacesim-live ./cmd/spacesim
	/tmp/spacesim-live -n 30000 -procs 4 -steps 10 -http 127.0.0.1:17071 \
		-report -analysis /tmp/spacesim-smoke-live.json >/tmp/spacesim-smoke-live.log & pid=$$!; \
	up=0; for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:17071/progress.json >/dev/null; then up=1; break; fi; sleep 0.1; done; \
	[ $$up = 1 ] || { echo "live-smoke: server never came up"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://127.0.0.1:17071/metrics | grep -q "# TYPE" || { echo "live-smoke: /metrics"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://127.0.0.1:17071/progress.json | grep -q '"state"' || { echo "live-smoke: /progress.json"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf -o /tmp/spacesim-smoke-live.pprof "http://127.0.0.1:17071/debug/pprof/profile?seconds=1" || { echo "live-smoke: pprof"; kill $$pid 2>/dev/null; exit 1; }; \
	wait $$pid
	$(GO) run ./cmd/tracecheck -analysis /tmp/spacesim-smoke-live.json

# Run-ledger smoke: two identical short spacesim runs recorded into a
# scratch ledger must stamp identical config digests (the digest covers only
# deterministic invocation parameters); the trend report must render; the
# baseline arm of the perf gate must pass the second run's report against
# the first (one engine worker, so the virtual schedule repeats); the HTML
# dashboard must render; and tracecheck must re-verify every run record and
# content-addressed artifact blob.
ledger-smoke:
	$(GO) build -o /tmp/spacesim-smoke-ssbench ./cmd/ssbench
	$(GO) build -o /tmp/spacesim-smoke-spacesim ./cmd/spacesim
	rm -rf /tmp/spacesim-smoke-ledger
	/tmp/spacesim-smoke-spacesim -n 600 -procs 3 -steps 2 -engine-workers 1 -report \
		-ledger /tmp/spacesim-smoke-ledger -analysis /tmp/spacesim-smoke-ledger-a.json
	/tmp/spacesim-smoke-spacesim -n 600 -procs 3 -steps 2 -engine-workers 1 -report \
		-ledger /tmp/spacesim-smoke-ledger -analysis /tmp/spacesim-smoke-ledger-b.json
	@da=$$(grep -o '"config_digest": *"[0-9a-f]*"' /tmp/spacesim-smoke-ledger-a.json); \
	db=$$(grep -o '"config_digest": *"[0-9a-f]*"' /tmp/spacesim-smoke-ledger-b.json); \
	[ -n "$$da" ] && [ "$$da" = "$$db" ] || { echo "ledger-smoke: config digests differ: $$da vs $$db"; exit 1; }; \
	echo "ledger-smoke: identical config digests across both runs"
	/tmp/spacesim-smoke-ssbench trend -ledger /tmp/spacesim-smoke-ledger
	/tmp/spacesim-smoke-ssbench diff -baseline -ledger /tmp/spacesim-smoke-ledger /tmp/spacesim-smoke-ledger-b.json
	/tmp/spacesim-smoke-ssbench report -ledger /tmp/spacesim-smoke-ledger -html /tmp/spacesim-smoke-ledger-runs.html
	$(GO) run ./cmd/tracecheck -ledger /tmp/spacesim-smoke-ledger

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

# Full local CI pass: formatting, static checks, the arm64 cross-build, tests,
# race detector, the one-slot pass, the per-width kernel pass, the observability + trace-analysis + fault-injection +
# live-telemetry + run-ledger + job-server smoke runs, the fuzz smoke, and the
# check that EXPERIMENTS.md's tables are what the registry prints.
ci: fmt-check vet cross-build test race one-slot kernels-widths smoke analyze-smoke fault-smoke live-smoke ledger-smoke serve-smoke fuzz-smoke experiments-check
