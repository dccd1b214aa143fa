# Build and verification entry points. `make ci` is what the GitHub
# workflow runs; every target is also usable standalone.

GO ?= go

.PHONY: build fmt-check vet lint lint-json lint-sarif lint-baseline lint-concurrency vulncheck test race race-bb race-server bench-smoke bench-e2e-smoke bench-json serve-smoke obs-smoke paper-gate-check fuzz-smoke ci

build:
	$(GO) build ./...

# gofmt must have nothing to rewrite anywhere in the tree (fixtures under
# testdata included — they are parsed by the analyzer tests).
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -w needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The repo's own analyzers (see internal/analysis): panic prefixes,
# seeded randomness, float comparisons, dropped module errors, map
# iteration order, goroutine-closure captures, wall-clock isolation,
# plus the cross-package module passes (oracle purity, ctx propagation,
# one-word mask inventory, sentinel chaining over the call graph, the
# CONC_POLICY.json concurrency gate with its goroutine-leak and
# lock-discipline contracts, stale //lint:allow audit). Findings in
# LINT_BASELINE.json are accepted and
# non-fatal; only new findings fail. Type-check errors fail the run;
# -lenient degrades them to warnings.
lint:
	$(GO) run ./cmd/repro-lint ./...

# Same run, rendered as the machine-readable findings document CI
# archives. Exit status is preserved, so the artifact exists even when
# the gate fails (`-` on the recipe would hide real findings).
lint-json:
	$(GO) run ./cmd/repro-lint -json ./... > REPRO_LINT.json; \
	status=$$?; cat REPRO_LINT.json; exit $$status

# Same run again as a SARIF 2.1.0 document (GitHub code scanning);
# baselined findings carry baselineState "unchanged" at level "note".
lint-sarif:
	$(GO) run ./cmd/repro-lint -sarif REPRO_LINT.sarif ./...; \
	status=$$?; ls -l REPRO_LINT.sarif; exit $$status

# Accept the current findings into the checked-in ledger. Run after a
# reviewed change to the inventory (e.g. a mask call site migrated to
# multi-word bitsets); TestSelfClean pins the ledger to reality.
lint-baseline:
	$(GO) run ./cmd/repro-lint -write-baseline

# The concurrency gate in isolation: the unit + fixture + seeded-bug
# tests of concpolicy/goleak/lockcheck/sharedcap (including the
# CONC_POLICY.json pinning test), then the full lint run over the real
# tree, which must come back clean under the policy.
lint-concurrency:
	$(GO) test ./internal/analysis/ -count=1 \
		-run 'ConcPolicy|GoLeak|LockCheck|SharedCap|ConcurrencyPolicy|ConcurrencyLedger'
	$(GO) run ./cmd/repro-lint ./...

# Known-vulnerability scan (network: downloads the vuln DB and the
# govulncheck tool itself, so it runs as a separate CI job, not in the
# offline `make ci` aggregate).
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race detector over the wave-parallel branch-and-bound at a high worker
# count: the worker-invariance and differential tests exercise the
# per-search worker states (parallel.Scratch) and the frozen-incumbent
# waves under contention; the feasibility, saturated-root-bound and
# allocation-ceiling tests cover the engine's bookkeeping and frontier.
race-bb:
	REPRO_WORKERS=8 $(GO) test -race -run 'BranchBound|Differential|KernelMatchesRaw|Feasible|AllocCeiling' \
		./internal/kplex/

# One iteration of every benchmark: catches benchmarks that panic or
# fatal without paying for stable timings. Covers the fast-path packages
# (root BenchmarkOracleSweep/BenchmarkQMKPBinarySearch pairs included),
# the request decoder (BenchmarkDecodeSolveRequest) and the oracle
# compiler (BenchmarkBuildOpts, and BenchmarkStagesBuild, one qMKP
# probe's share of it, in ./internal/oracle/), the qaMKP sampler
# (BenchmarkSQA, kept-field and recomputed-field paths, in
# ./internal/anneal/) and the exact search (BenchmarkBBOpt, an
# exact-cold-shaped and a dense graph with allocations reported, in
# ./internal/kplex/).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/kplex/ ./internal/fastoracle/ ./internal/api/ ./internal/oracle/ ./internal/anneal/

# The service benchmark's own smoke test (_bench is a separate module, so
# `go test ./...` at the root skips it): every workload end to end at a
# tiny size, untraced and traced, against a freshly built qmkpd, checking
# answers, the metric names and units BENCHMARK.json declares, and that
# two traced runs of one seed report identical work counts. Needs
# taskset (util-linux).
bench-e2e-smoke:
	cd _bench && $(GO) test -count=1 ./...

# Timed fast-path benchmarks rendered as JSON (cmd/benchjson) — the
# artifact behind EXPERIMENTS.md's speedup table and the CI upload.
# BENCH_ISSUE7.json captures the Table-vs-branch-and-bound crossover
# (exhaustive 2^n sweep against pruned search for one maximum query as n
# grows, plus the n=100 beyond-the-mask-wall point). The branch-and-bound
# benchmarks live beside the engine in internal/kplex.
bench-json:
	{ $(GO) test -run '^$$' -bench 'BenchmarkOracleSweep|BenchmarkQMKPBinarySearch' . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkGreedy|BenchmarkEvaluatorSweep' ./internal/kplex/ ./internal/fastoracle/ ; } \
	| $(GO) run ./cmd/benchjson > BENCH_ISSUE3.json
	@cat BENCH_ISSUE3.json
	$(GO) test -run '^$$' -bench 'BenchmarkStoreCrossover' ./internal/kplex/ \
	| $(GO) run ./cmd/benchjson > BENCH_ISSUE7.json
	@cat BENCH_ISSUE7.json
	$(GO) test -run '^$$' -bench 'BenchmarkBBEndToEnd|BenchmarkBBFeasible' ./internal/kplex/ \
	| $(GO) run ./cmd/benchjson > BENCH_ISSUE8.json
	@cat BENCH_ISSUE8.json

# Race detector over the solver daemon: admission semaphore, result
# cache, trace ring and graceful drain under concurrent clients.
race-server:
	$(GO) test -race -count=1 ./internal/server/

# Service smoke: spawn qmkpd on a free port, stream one known instance
# (gnm100, k=2, optimum 5) and assert the event feed ends in the right
# final frame, then resubmit a random relabelling and assert it is
# served from the canonical-hash cache with a valid witness — counters
# on /debug/vars and the /v1/trace download checked along the way.
serve-smoke:
	$(GO) build -o /tmp/qmkpd-smoke ./cmd/qmkpd
	$(GO) run ./cmd/qmkp-load -spawn /tmp/qmkpd-smoke

# Observability smoke: one seeded qMKP solve and one seeded qTKP solve,
# each traced twice at different worker counts. The span/event stream and
# the metrics snapshot must be bit-identical (the determinism contract of
# internal/obs, DESIGN.md §9). The qMKP instance is one whose bounded
# search runs a failed and a found probe, so the sample shows both
# outcomes. The qMKP worker-1 outputs stay behind as OBS_TRACE.jsonl /
# OBS_METRICS.json — the checked-in sample that CI regenerates and
# archives; the qTKP outputs go to /tmp only.
obs-smoke:
	REPRO_WORKERS=1 $(GO) run ./cmd/qmkp -algo qmkp -k 2 -gen 10,23 -seed 2 \
		-trace-out OBS_TRACE.jsonl -metrics-out OBS_METRICS.json
	REPRO_WORKERS=8 $(GO) run ./cmd/qmkp -algo qmkp -k 2 -gen 10,23 -seed 2 \
		-trace-out /tmp/obs-trace.w8.jsonl -metrics-out /tmp/obs-metrics.w8.json
	cmp OBS_TRACE.jsonl /tmp/obs-trace.w8.jsonl
	cmp OBS_METRICS.json /tmp/obs-metrics.w8.json
	REPRO_WORKERS=1 $(GO) run ./cmd/qmkp -algo qtkp -k 2 -T 4 -gen 10,23 -seed 5 \
		-trace-out /tmp/obs-qtkp-trace.w1.jsonl -metrics-out /tmp/obs-qtkp-metrics.w1.json
	REPRO_WORKERS=8 $(GO) run ./cmd/qmkp -algo qtkp -k 2 -T 4 -gen 10,23 -seed 5 \
		-trace-out /tmp/obs-qtkp-trace.w8.jsonl -metrics-out /tmp/obs-qtkp-metrics.w8.json
	cmp /tmp/obs-qtkp-trace.w1.jsonl /tmp/obs-qtkp-trace.w8.jsonl
	cmp /tmp/obs-qtkp-metrics.w1.json /tmp/obs-qtkp-metrics.w8.json
	@echo "obs-smoke: qmkp and qtkp traces and metrics bit-identical at 1 and 8 workers"

# The paper's outputs that do not depend on wall clock, pinned: Fig. 9
# and Tables II-IV (the gate model) and Tables I and VI (Table I's
# qaMKP row and Table VI's penalty sweep run qaMKP through
# core.SolveAnneal), regenerated at full budgets (about 8 s), must match
# their sections of the checked-in experiments_output.txt line for
# line. Only the wall-clock lines are dropped before the diff:
# "(... regenerated in ...)" and the timed BS baseline row. Measured
# masks, sample counts, sizes, modelled QPU times, error probabilities,
# gate shares and annealed costs all stay in.
paper-gate-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/experiments -exp fig9,table1,table2,table3,table4,table6 > "$$tmp/got" || exit 1; \
	awk '/^== [a-z0-9]+: /{ id = $$2; sub(/:$$/, "", id); keep = (id == "fig9" || id == "table1" || id == "table2" || id == "table3" || id == "table4" || id == "table6") } keep' \
		experiments_output.txt > "$$tmp/want"; \
	wallclock='^\(.* regenerated in .*\)$$|^BS \(µs\) '; \
	grep -Ev "$$wallclock" "$$tmp/want" > "$$tmp/want.pinned"; \
	grep -Ev "$$wallclock" "$$tmp/got" > "$$tmp/got.pinned"; \
	diff -u "$$tmp/want.pinned" "$$tmp/got.pinned" && \
	echo "paper-gate-check: Fig. 9 and Tables I-IV and VI match experiments_output.txt"

# Short randomized runs of the native fuzz targets (the checked-in seed
# corpora always run as part of `make test`).
fuzz-smoke:
	$(GO) test ./internal/qarith/ -fuzz FuzzRippleCarryAdder -fuzztime 5s
	$(GO) test ./internal/qarith/ -fuzz FuzzComparator -fuzztime 5s
	$(GO) test ./internal/bitvec/ -fuzz FuzzBitVec -fuzztime 5s
	$(GO) test ./internal/graph/ -fuzz FuzzGraphRead -fuzztime 5s
	$(GO) test ./internal/oracle/ -run FuzzFastOracle -fuzz FuzzFastOracle -fuzztime 5s
	$(GO) test ./internal/grover/ -run FuzzGroverPlane -fuzz FuzzGroverPlane -fuzztime 5s
	$(GO) test ./internal/api/ -run FuzzDecodeSolveRequest -fuzz FuzzDecodeSolveRequest -fuzztime 5s
	$(GO) test ./internal/server/ -run FuzzExecute -fuzz FuzzExecute -fuzztime 5s

ci: build fmt-check vet lint lint-concurrency test race race-bb race-server bench-smoke bench-e2e-smoke obs-smoke paper-gate-check serve-smoke fuzz-smoke
