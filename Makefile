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
# Separate floor for the cluster layer (routing, dispatch and work
# stealing through each model group's shared queue, over a fixed
# replica set). Recorded at 91.9% once the admission chain, autoscaler
# and drain were deleted, and at 92.7% once the route-time spill and
# -steal were.
CLUSTER_COVER_FLOOR := 80.0

.PHONY: build test race sched-soak golden differential grammar-gate cover fuzz bench bench-smoke loadgate trace-gate fmt fmt-check vet loc serve serve-fleet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector. Shuffled test order catches
# inter-test state leaks; the race detector covers the fleet's
# concurrent fail-fast load scenario (cluster.TestFailFastLoadAccounted),
# work stealing through a model group's shared queue
# (TestWedgedMemberStrandsNoWork: a wedged replica strands nothing
# behind it; TestIdleFleetRunsNoPollers: an idle fleet runs only its
# workers) and the scheduler's FIFO admission behind a decode that
# keeps its slot (serve.TestContinuousFIFO). The root package's
# TestMakefileGatesResolve rides here: every -run alternative below
# must still name a test, .PHONY must list exactly the defined targets,
# and the ci list must equal the CI matrix.
race:
	$(GO) test -race -shuffle=on ./...

# Continuous-scheduler churn soak: join/leave cycling through a small
# batch (with a clean drain, after which no worker goroutine may
# outlive Close), FIFO admission with the
# engine-vs-direct-decode byte-identity check, backpressure, the
# step-wise decode API (interleaved decodes on one trie, the
# session_prep trie_hit_depth) and a fleet group's shared queue (a
# wedged replica's sibling serves everything queued behind it, byte
# for byte; an idle fleet runs only its workers) under the race
# detector, shuffled so admission order varies run to run. The explicit -timeout turns a
# wedged scheduler (a step that never returns, a queued request never
# admitted) into a fast failure instead of a hung CI runner.
sched-soak:
	$(GO) test -race -shuffle=on -timeout 600s \
		-run 'TestContinuous|TestSchedulerChurnSoak|TestStepwise|TestWedgedMemberStrandsNoWork|TestIdleFleetRunsNoPollers' \
		-v ./internal/serve/ ./internal/core/ ./internal/cluster/

# Byte-identical decode outputs through the drafter/verifier pipeline:
# ntp/medusa/ours against fixtures captured from the pre-refactor
# loop, the three first tree strategies pinned the day they landed, and
# the two grammar strategies plus every tree case's node and grammar
# counts pinned before the drafters shared one Draft contract, at 1, 2
# and 8 procs. Then the allocation gate: each of the nine strategies
# stays within 1.25x of its measured heap allocations per clean token
# (ntp 3.5, ours 7.4 ... grammar-tree 48.5; the table is in
# allocs_test.go). Regenerate the fixtures deliberately with:
# go test -run TestGolden ./internal/core/ -update
golden:
	$(GO) test -cpu 1,2,8 -run 'TestGolden|TestGateAllocsDecode' -v ./internal/core/

# Byte-identical outputs with and without the session cache ({off,
# token-prefix trie, every decode of a matrix entry alive at once on
# one trie and stepped in a reshuffled round-robin} × the full strategy
# matrix, tree strategies included), plus the tree
# losslessness proof (greedy lookup-tree == linear prompt-lookup ==
# NTP, byte for byte), plus the per-decode memo answering every prefix
# of the fixture decodes exactly as a fresh memo computes each one from
# scratch, plus the per-decode syntax oracle answering every probe of
# every grammar decode step exactly as one built from scratch over the
# same text (TestStateMatchesScratch), plus
# the scatter predict kernel equal bit for bit to the merge loop it
# replaced on every table and context of the fixture corpus, and every
# on-demand head candidate list equal to TopK of the dense head: the
# gates that make the prefix cache, interleaved batching, tree drafting,
# the memo and the predict kernel admissible at all. Then training's
# exactness gates: a model trained at GOMAXPROCS 4 is, float bits
# included, the model GOMAXPROCS 1 builds (TestTrainDeterministic); every
# table's frozen predictions, the keyword table's under every seed of
# its parts, equal bit for bit those of a map reference fed each
# example's observations straight (TestFrozenMatchesReference); and on
# vgend's corpus every level of every table holds exactly as many
# contexts as its observations held distinct ones, so no two context
# keys collide (TestContextKeysExact), and every keyword run above
# level 0 holds only ids of its keyword's level-0 run, the support the
# keyword expert resolves a decode's evidence over (TestKwSupportNested),
# whose factors its Pow cache returns bit for bit (TestFactorCacheExact).
# Under those, the one level
# builder every training unit uses: a level built from several takes of
# a tally, reset between them as a keyword part resets it between its
# keywords, is exactly the level one tally of all their observations
# builds (TestLevelBufTakes), and a reset tally refilled builds exactly
# the level a fresh one does (TestTallyReset). Last, the functional
# oracle's own differential: every problem's bench is generated from its
# reference and compares the design against it, so every single-site
# mutant of every reference (arithmetic, logic, relational boundary,
# constant flip, inversion removal, clock edge, blocking vs
# non-blocking) that still parses must fail its bench unless it is on
# the committed equivalent list (TestTestbenchesKillMutants), and every
# problem's ports must fit the clk/rst/data stimulus rule, a port it
# cannot drive being an error (TestBenchPortConvention).
differential:
	$(GO) test -run 'TestDifferentialCacheModes|TestTreeLosslessGate|TestForkedSessionByteIdentical|TestLookupTreeGreedyLossless|TestMemoByteIdentical|TestStateMatchesScratch|TestPredictMatchesReference|TestHeadCandsExact|TestTrainDeterministic|TestFrozenMatchesReference|TestContextKeysExact|TestKwSupportNested|TestFactorCacheExact|TestLevelBufTakes|TestTallyReset|TestTestbenchesKillMutants|TestBenchPortConvention' -v ./internal/experiments/ ./internal/core/ ./internal/model/ ./internal/bench/

# The grammar-constrained-drafting gate: (1) the accepted-length claim
# — grammar-pruned trees must beat plain ours-tree mean accepted length
# on the bench prompt schedule, with the oracle demonstrably engaged;
# (2) the losslessness proof — greedy grammar-lookup-tree byte streams
# equal NTP's, and grammar decodes are deterministic with stats; (3)
# the sim-pass-rate floor — testbench simulation pass rates of the
# grammar strategies never drop below their ungated counterparts'.
# (The cache-mode differential already covers the grammar strategies
# via the strategy matrix in the differential target.)
grammar-gate:
	$(GO) test -run 'TestGrammarBenchGrammarBeatsOursTree|TestSimBenchPassRateFloor' -v -timeout 600s ./internal/experiments/
	$(GO) test -run 'TestGrammarLookupTreeGreedyLossless|TestGrammarDecodeStatsAndDeterminism|TestGrammarAcceptsAtLeastOursTree' -v ./internal/core/
	$(GO) test -v ./internal/core/spec/grammar/

# The latency-under-load gate: short-request p95 with one long decode
# in flight must stay within 1.5x of unloaded, on two workers at the
# default batch width, with some loaded-phase sweep demonstrably
# stepping a short beside the long.
loadgate:
	$(GO) test -run TestLoadBenchLatencyGate -v -timeout 600s ./internal/experiments/

# The tracing gate: best-of-N decode throughput with a live tracer
# assembling the full span tree per request must stay within 5% of
# tracing-off (tracing defaults on in vgend, so this is what keeps the
# default honest; -v logs the on/off rows), and tracing must not change
# a single generated byte. Then, under the race detector because spans
# are claimed from concurrent sweep workers and batch-item goroutines:
# the span-tree shape (queue/decode/session_prep/sweep nesting, with a
# second request queued behind a full batch), the request-ID echo on
# every error path, the fleet
# request's /debug/requests postmortem e2e and the phase-metrics
# exposition.
trace-gate:
	$(GO) test -run 'TestTraceOverheadGate|TestTraceByteIdentity' -v -timeout 600s ./internal/experiments/
	$(GO) test -race -timeout 600s \
		-run 'TestSpanTreeShape|TestRequestIDEchoedOnErrorPaths|TestDebugSurfaceFleetRequest|TestPhaseMetricsExposed' \
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

# Native fuzzing smoke: the trie lookup/insert invariant, the frozen
# n-gram table (a training unit's tallies, and the predictor over the
# levels it builds, equal to the map reference), the scatter predict kernel (equal bit for bit to the merge
# loop it replaced), the Verilog lexer, the full parser (no-panic,
# *SyntaxError contract, the prefix-soundness invariant the grammar
# oracle rests on, and verilog.Inspect visiting every node of each
# tree it builds, checked against a reflection walk), the
# draft-tree arena (insert/walk/longest-accepted-path invariants), the
# lookup drafters' shared suffix-match scan (the linear and tree runs
# equal the two loops it replaced, <bos> boundaries included), the
# model's one-pass induction match (equal to the k-by-k prompt rescan it
# replaced, ties to the latest match, on every prefix), the syntax
# oracle a decode carries across its steps (one grammar.State through
# appends, cuts and splices, every probe equal to a fresh state's and to
# verilog.CheckPrefix), and
# the BPE encoder (ids equal to the per-merge rescan it replaced,
# Decode(Encode(s)) == s), the [FRAG] segmenter (the lexer's
# segmentation equal to the regexp segmenter it replaced) and the
# functional oracle (CheckFunction on arbitrary designs against the
# benches generated from the references returns a verdict and never
# panics),
# each for a short budget on top of the committed seed corpora
# (testdata/fuzz/). Run longer locally with FUZZTIME=5m.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTrieLookupInsert -fuzztime $(FUZZTIME) ./internal/model/
	$(GO) test -run '^$$' -fuzz FuzzFrozenTable -fuzztime $(FUZZTIME) ./internal/model/
	$(GO) test -run '^$$' -fuzz FuzzPredict -fuzztime $(FUZZTIME) ./internal/model/
	$(GO) test -run '^$$' -fuzz FuzzFindInduction -fuzztime $(FUZZTIME) ./internal/model/
	$(GO) test -run '^$$' -fuzz FuzzLexer -fuzztime $(FUZZTIME) ./internal/verilog/
	$(GO) test -run '^$$' -fuzz FuzzParser -fuzztime $(FUZZTIME) ./internal/verilog/
	$(GO) test -run '^$$' -fuzz FuzzDraftTree -fuzztime $(FUZZTIME) ./internal/core/spec/tree/
	$(GO) test -run '^$$' -fuzz FuzzLookupScan -fuzztime $(FUZZTIME) ./internal/core/spec/
	$(GO) test -run '^$$' -fuzz FuzzGrammarState -fuzztime $(FUZZTIME) ./internal/core/spec/grammar/
	$(GO) test -run '^$$' -fuzz FuzzEncode -fuzztime $(FUZZTIME) ./internal/tokenizer/
	$(GO) test -run '^$$' -fuzz FuzzSegment -fuzztime $(FUZZTIME) ./internal/frag/
	$(GO) test -run '^$$' -fuzz FuzzCheckFunction -fuzztime $(FUZZTIME) ./internal/bench/

# Engine wall-clock throughput + the strategy matrix (every strategy's
# speed, accepted length and tree columns) + scheduler-load smoke + the
# model's per-call cost — Forward, ForwardMemo and BaseDistMemo (the
# BenchmarkBaseDist alternative matches BenchmarkBaseDistMemo's hit and
# miss rows) — the syntax oracle's cost over one recorded grammar-tree
# decode (BenchmarkGrammarDecode: one carried state against a fresh
# Begin per step) and each stage of vgend's start-up at its default flags
# (BenchmarkBuildCorpus, BenchmarkTrainTokenizer, BenchmarkTrain: one
# training of vgend's model, and BenchmarkEncodeWithFrags: the [FRAG]
# encoding of vgend's corpus), in ns, B and allocs per op, then
# one evalbench process — one corpus, each model trained once — for the
# structured rows: the grammar comparison, the sim-pass-rate tier and
# the tracing on/off rows. CI
# uploads bench_output.txt and evalbench_rows.json as one artifact
# (pipefail: a failing benchmark must not hide behind tee). Run
# `go test -bench=. ./...` for the full paper harness.
bench:
	set -o pipefail; $(GO) test -run '^$$' -bench='BenchmarkEngine|BenchmarkStrategyMatrix|BenchmarkLoadBench|BenchmarkForward|BenchmarkBaseDist|BenchmarkKwFactors|BenchmarkSample|BenchmarkFindInduction|BenchmarkGrammarDecode|BenchmarkTrain|BenchmarkTrainTokenizer|BenchmarkBuildCorpus|BenchmarkEncodeWithFrags' -benchtime=1x ./... | tee bench_output.txt
	set -o pipefail; $(GO) run ./cmd/evalbench -quick -exp grammar,sim,trace -json evalbench_rows.json | tee -a bench_output.txt

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

# Train once, serve a 4-replica fleet: one model group sharing one
# request queue, so an idle member takes up whatever waits behind a
# busy sibling.
serve-fleet:
	$(GO) run ./cmd/vgend -replicas 4

# The CI matrix in .github/workflows/ci.yml lists exactly these targets
# (TestMakefileGatesResolve holds the two lists equal).
ci: build fmt-check vet race sched-soak golden differential grammar-gate trace-gate cover fuzz loadgate bench bench-smoke
