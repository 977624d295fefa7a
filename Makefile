# Every CI job is `make <target>` for one target of the `ci` list at
# the bottom (.github/workflows/ci.yml runs them as one matrix), so a
# local `make ci` reproduces exactly what CI runs, and each gate's
# rationale lives once: in the comment above its target.

GO ?= go
# bash for pipefail: a failing benchmark must not hide behind tee.
SHELL := /bin/bash

# Coverage floor for the packages the prefix-trie cache lives in
# (internal/model + internal/serve). Recorded at 89.5% when the trie
# landed; CI fails below the floor so cache/fork coverage cannot rot.
COVER_FLOOR := 87.0
COVER_PKGS := ./internal/model/ ./internal/serve/
# Separate floor for the cluster layer (routing, shedding, breakers,
# hedged dispatch, stealing, autoscaling). Recorded at 89.8% when the
# elasticity tier landed.
CLUSTER_COVER_FLOOR := 80.0

.PHONY: build test race sched-soak golden differential adapt-gate grammar-gate cover fuzz bench bench-smoke loadgate chaos-gate chaos-soak trace-gate fmt fmt-check vet loc serve ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector. Shuffled test order catches
# inter-test state leaks; the race detector covers the fleet's
# concurrent mixed-priority load scenario
# (cluster.TestMixedPriorityLoadAccounted). The root package's
# TestMakefileGatesResolve rides here: every -run alternative below
# must still name a test, and the ci list must equal the CI matrix.
race:
	$(GO) test -race -shuffle=on ./...

# Continuous-scheduler churn soak: join/leave/preempt cycling (with the
# engine-vs-direct-decode byte-identity check), backpressure and the
# step-wise decode API under the race detector, shuffled so admission
# order varies run to run. The explicit -timeout turns a wedged
# scheduler (a sweep that never returns, a lost resume) into a fast
# failure instead of a hung CI runner.
sched-soak:
	$(GO) test -race -shuffle=on -timeout 600s \
		-run 'TestContinuous|TestSchedulerChurnSoak|TestStepwise' \
		-v ./internal/serve/ ./internal/core/

# Byte-identical decode outputs through the drafter/verifier pipeline:
# ntp/medusa/ours against fixtures captured from the pre-refactor
# loop, plus the tree strategies pinned the day they landed. Regenerate
# deliberately with: go test -run TestGolden ./internal/core/ -update
golden:
	$(GO) test -run TestGolden -v ./internal/core/

# Byte-identical outputs across session-cache modes ({off, token-prefix
# trie, trie under randomized park/drop/resume preemption} × the full
# strategy matrix, tree strategies included), across adapt modes
# ({controller off, shadow, applied} for fully-pinned requests), plus
# the tree losslessness proof (greedy lookup-tree == linear
# prompt-lookup == NTP, byte for byte): the gates that make the prefix
# cache, preemption, tree drafting and the speculation controller
# admissible at all.
differential:
	$(GO) test -run 'TestDifferentialCacheModes|TestDifferentialAdaptModes|TestTreeLosslessGate|TestForkedSessionByteIdentical|TestLookupTreeGreedyLossless' -v ./internal/experiments/ ./internal/core/

# The adaptive-speculation gate: (1) the load-sweep dominance claim —
# across swept load points the self-tuning controller must sit on the
# throughput/p95 frontier of the static (strategy, budget) grid,
# strictly beating some static pair at both extremes, on a
# deterministic simulation over measured decode profiles; (2) the
# adapt-mode differential (shadow/on byte-identical to off for pinned
# requests); (3) continuous-scheduler churn with the controller
# applied, under the race detector with shuffled order.
adapt-gate:
	$(GO) test -run 'TestLoadSweepControllerDominates|TestLoadSweepDeterministic|TestDifferentialAdaptModes' -v -timeout 600s ./internal/experiments/
	$(GO) test -race -shuffle=on -timeout 600s -run 'TestAdapt|TestContinuousAdaptChurn|TestParseAdaptModeTable' -v ./internal/serve/
	$(GO) test -race -shuffle=on -timeout 600s ./internal/core/spec/adapt/

# The grammar-constrained-drafting gate: (1) the accepted-length claim
# — grammar-pruned trees must beat plain ours-tree mean accepted length
# on the bench prompt schedule, with the oracle demonstrably engaged;
# (2) the losslessness proof — greedy grammar-lookup-tree byte streams
# equal NTP's, and grammar decodes are deterministic with stats; (3)
# the sim-pass-rate floor — testbench simulation pass rates of the
# grammar strategies never drop below their ungated counterparts'.
# (The cache-mode/adapt-mode differentials already cover the grammar
# strategies via the strategy matrix in the differential target.)
grammar-gate:
	$(GO) test -run 'TestGrammarBenchGrammarBeatsOursTree|TestSimBenchPassRateFloor' -v -timeout 600s ./internal/experiments/
	$(GO) test -run 'TestGrammarLookupTreeGreedyLossless|TestGrammarDecodeStatsAndDeterminism|TestGrammarAcceptsAtLeastOursTree' -v ./internal/core/
	$(GO) test -v ./internal/core/spec/grammar/

# The latency-under-load gate: short-request p95 with one long decode
# in flight must stay within 1.5x of unloaded, with the long decode
# demonstrably preempted.
loadgate:
	$(GO) test -run TestLoadBenchLatencyGate -v -timeout 600s ./internal/experiments/

# The chaos recovery gate: with a replica killed (and, separately,
# wedged) mid-bench, the fleet must answer every request within
# protocol — zero client-visible errors beyond documented shedding —
# and after healing, short-request p99 must recover to within 1.5x of
# an unfaulted run. Fault injection is deterministic
# (serve.Config.StepFault wired to the experiments fault plane).
chaos-gate:
	$(GO) test -run 'TestChaosRecoveryGate|TestFaultPlaneKinds' -v -timeout 600s ./internal/experiments/

# Fault-injection churn under the race detector: the fault plane cycles
# kill/wedge/slow/error-rate across the replicas of a hedging, stealing,
# breaker-guarded fleet while clients hammer it, alongside the
# elasticity unit tier (breakers, hedges, stealing, autoscaling, drain,
# rolling swap). The explicit -timeout turns a wedged dispatch into a
# fast failure instead of a hung CI runner.
chaos-soak:
	$(GO) test -race -shuffle=on -timeout 600s \
		-run 'TestChaosChurnSoak|TestBreaker|TestHedge|TestSteal|TestAutoscale|TestDrain|TestRollingSwap|TestSwapUnknownModelRejected' \
		-v ./internal/experiments/ ./internal/cluster/

# The tracing gate: best-of-N decode throughput with a live tracer
# assembling the full span tree per request must stay within 5% of
# tracing-off (tracing defaults on in vgend, so this is what keeps the
# default honest; -v logs the on/off rows), and tracing must not change
# a single generated byte. Then, under the race detector because spans
# are claimed from concurrent attempt goroutines: the span-tree shape
# (queue/decode/sweep/park nesting with preemption forced on), the
# request-ID echo on every error path, the hedged-wedged-primary
# /debug/requests postmortem e2e and the phase-metrics exposition.
trace-gate:
	$(GO) test -run 'TestTraceOverheadGate|TestTraceByteIdentity' -v -timeout 600s ./internal/experiments/
	$(GO) test -race -timeout 600s \
		-run 'TestSpanTreeShape|TestRequestIDEchoedOnErrorPaths|TestDebugSurfaceHedgedWedgedPrimary|TestPhaseMetricsExposed' \
		-v ./internal/serve/ ./internal/cluster/
	$(GO) test -race -timeout 600s ./internal/trace/ ./internal/promtest/

# Coverage gate over the prefix-cache packages: fails if total coverage
# of internal/model + internal/serve drops below COVER_FLOOR — then the
# same for the cluster layer against CLUSTER_COVER_FLOOR.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "model+serve coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	{ echo "coverage below floor" >&2; exit 1; }
	$(GO) test -coverprofile=cover_cluster.out -covermode=atomic ./internal/cluster/
	@total=$$($(GO) tool cover -func=cover_cluster.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "cluster coverage: $$total% (floor $(CLUSTER_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(CLUSTER_COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	{ echo "cluster coverage below floor" >&2; exit 1; }

# Native fuzzing smoke: the trie lookup/insert invariant, the Verilog
# lexer, the full parser (no-panic, *SyntaxError contract, and the
# prefix-soundness invariant the grammar oracle rests on) and the
# draft-tree arena (insert/walk/longest-accepted-path invariants),
# each for a short budget on top of the committed seed corpora
# (testdata/fuzz/). Run longer locally with FUZZTIME=5m.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTrieLookupInsert -fuzztime $(FUZZTIME) ./internal/model/
	$(GO) test -run '^$$' -fuzz FuzzLexer -fuzztime $(FUZZTIME) ./internal/verilog/
	$(GO) test -run '^$$' -fuzz FuzzParser -fuzztime $(FUZZTIME) ./internal/verilog/
	$(GO) test -run '^$$' -fuzz FuzzDraftTree -fuzztime $(FUZZTIME) ./internal/core/spec/tree/

# Engine wall-clock throughput + the strategy matrix (every strategy's
# speed, accepted length and tree columns) + scheduler-load smoke, then
# one evalbench process — one corpus, each model trained once — for the
# structured rows: the adaptive load sweep (throughput, p50/p95, mean
# accepted length and controller counters per load point and
# configuration, plus the measured decode profiles), the grammar
# comparison, the sim-pass-rate tier and the tracing on/off rows. CI
# uploads bench_output.txt and evalbench_rows.json as one artifact
# (pipefail: a failing benchmark must not hide behind tee). Run
# `go test -bench=. ./...` for the full paper harness.
bench:
	set -o pipefail; $(GO) test -run '^$$' -bench='BenchmarkEngine|BenchmarkStrategyMatrix|BenchmarkLoadBench' -benchtime=1x ./... | tee bench_output.txt
	set -o pipefail; $(GO) run ./cmd/evalbench -quick -exp sweep,grammar,sim,trace -json evalbench_rows.json | tee -a bench_output.txt

# The repo benchmark's smoke pass: real vgend processes over loopback
# HTTP on all four BENCHMARK.json workloads at reduced length; every
# response digest, replay and repeat is checked against the committed
# benchmark/expected/*.sha256, so a change that moves generated bytes —
# or breaks a flag, route or metrics key the benchmark uses — fails
# (about 27 s).
bench-smoke:
	$(GO) run ./benchmark -smoke

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

# Non-test Go lines outside benchmark/ — the number a simplification PR
# quotes before and after, so "net-negative" is one command.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | wc -l

# Train and serve the generation daemon on :8080.
serve:
	$(GO) run ./cmd/vgend

# Train once, serve a 4-replica fleet with the full shedding chain.
serve-fleet:
	$(GO) run ./cmd/vgend -replicas 4 -shed-policy deadline,priority,budget

# The CI matrix in .github/workflows/ci.yml lists exactly these targets
# (TestMakefileGatesResolve holds the two lists equal).
ci: build fmt-check vet race sched-soak golden differential adapt-gate grammar-gate chaos-gate chaos-soak trace-gate cover fuzz loadgate bench bench-smoke
