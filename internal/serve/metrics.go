package serve

import (
	"io"
	"sync"
	"time"

	"repro/internal/core"
)

// stats accumulates engine counters under one mutex; contention is
// negligible next to a decode.
type stats struct {
	mu        sync.Mutex
	requests  uint64
	completed uint64
	canceled  uint64
	failed    uint64
	rejected  uint64
	shedded   uint64

	queueWaitSum time.Duration
	queueWaitMax time.Duration

	cacheHits   uint64
	cacheMisses uint64
	dedupHits   uint64

	// Scheduler counters: sweeps and the tasks they
	// stepped (their ratio is the mean batch occupancy), preemptions
	// (decodes parked mid-flight) and resumes; running/parked are the
	// scheduler's current-state gauges, refreshed every loop pass.
	sweeps      uint64
	sweptTasks  uint64
	preemptions uint64
	resumes     uint64
	running     int
	parked      int

	cleanTokens uint64
	rawTokens   uint64
	steps       uint64
	wall        time.Duration
	simMS       float64

	// acceptHist counts decoding steps by accepted length: bucket i
	// holds steps that emitted i+1 tokens, the last bucket everything
	// at or past AcceptDepthBuckets. Speculative wins live in the
	// bucket mass above index 0.
	acceptHist [AcceptDepthBuckets]uint64
	// treeNodes/treeBudget total draft-tree nodes proposed and the
	// node budget available across tree-drafting decodes; their ratio
	// is the budget-utilization gauge.
	treeNodes  uint64
	treeBudget uint64
	// grammarPruned/grammarDraftTokens total the draft nodes withheld
	// by the grammar oracle and the nodes contributed by synthesized
	// construct chains (grammar strategies only).
	grammarPruned      uint64
	grammarDraftTokens uint64

	// adaptShadowed counts speculation-controller decisions recorded
	// but not applied (Config.Adapt = AdaptShadow).
	adaptShadowed uint64

	perStrategy map[string]*strategyStats
}

type strategyStats struct {
	requests           uint64
	completed          uint64
	cacheHits          uint64
	dedupHits          uint64
	steps              uint64
	rawTokens          uint64
	cleanTokens        uint64
	simMS              float64
	treeNodes          uint64
	treeBudget         uint64
	grammarPruned      uint64
	grammarDraftTokens uint64
	// acceptHist is the per-strategy slice of the global accept-depth
	// histogram — the distribution the adaptive speculation controller
	// sizes this strategy's tree budget from, exported so metrics agree
	// with what the controller sees.
	acceptHist [AcceptDepthBuckets]uint64
}

// AcceptDepthBuckets sizes the acceptance-depth histogram: buckets
// 1..AcceptDepthBuckets-1 tokens per step, plus one overflow bucket.
const AcceptDepthBuckets = 16

func (s *stats) strategy(label string) *strategyStats {
	ss := s.perStrategy[label]
	if ss == nil {
		ss = &strategyStats{}
		s.perStrategy[label] = ss
	}
	return ss
}

func (s *stats) request(label string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	s.strategy(label).requests++
}

func (s *stats) cacheHit(label string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cacheHits++
	s.strategy(label).cacheHits++
}

func (s *stats) cacheMiss() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cacheMisses++
}

func (s *stats) dedupHit(label string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dedupHits++
	s.strategy(label).dedupHits++
}

func (s *stats) reject() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rejected++
}

func (s *stats) shed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shedded++
}

// queueWait accounts the delay between a task entering the queue and
// the scheduler admitting it (recorded for every dequeued task, including
// ones whose context died while waiting — that wait is precisely the
// signal).
func (s *stats) queueWait(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queueWaitSum += d
	if d > s.queueWaitMax {
		s.queueWaitMax = d
	}
}

func (s *stats) adaptShadow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.adaptShadowed++
}

func (s *stats) cancel() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.canceled++
}

func (s *stats) fail() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed++
}

func (s *stats) sweep(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweeps++
	s.sweptTasks += uint64(n)
}

func (s *stats) preempt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.preemptions++
}

func (s *stats) resume() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resumes++
}

func (s *stats) schedGauges(running, parked int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running, s.parked = running, parked
}

func (s *stats) complete(label string, res *core.Result, wall time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completed++
	s.cleanTokens += uint64(len(res.CleanTokens))
	s.rawTokens += uint64(len(res.Tokens))
	s.steps += uint64(res.Steps)
	s.wall += wall
	s.simMS += res.SimulatedMS
	s.treeNodes += uint64(res.TreeNodes)
	s.treeBudget += uint64(res.TreeBudget)
	s.grammarPruned += uint64(res.GrammarPruned)
	s.grammarDraftTokens += uint64(res.GrammarDraftTokens)
	ss := s.strategy(label)
	for _, n := range res.AcceptedPerStep {
		if n < 1 {
			n = 1
		}
		if n > AcceptDepthBuckets {
			n = AcceptDepthBuckets
		}
		s.acceptHist[n-1]++
		ss.acceptHist[n-1]++
	}
	ss.completed++
	ss.steps += uint64(res.Steps)
	ss.rawTokens += uint64(len(res.Tokens))
	ss.cleanTokens += uint64(len(res.CleanTokens))
	ss.simMS += res.SimulatedMS
	ss.treeNodes += uint64(res.TreeNodes)
	ss.treeBudget += uint64(res.TreeBudget)
	ss.grammarPruned += uint64(res.GrammarPruned)
	ss.grammarDraftTokens += uint64(res.GrammarDraftTokens)
}

// StrategyMetrics is the per-decoding-strategy slice of a metrics
// snapshot, keyed by the strategy's display name ("NTP", "Medusa",
// "Ours", "PromptLookup").
type StrategyMetrics struct {
	// Requests counts submissions (including cache and dedup hits).
	Requests uint64 `json:"requests"`
	// Completed counts finished decodes (cache/dedup hits excluded).
	Completed uint64 `json:"completed"`
	// CacheHits counts LRU short-circuits.
	CacheHits uint64 `json:"cache_hits"`
	// DedupHits counts single-flight shares (no decode ran).
	DedupHits uint64 `json:"dedup_hits"`
	// MeanAccepted is tokens emitted per decoding step — the paper's
	// mean accepted length, the quantity speculative decoding raises.
	MeanAccepted float64 `json:"mean_accepted"`
	// TokensPerSecSim is clean tokens over simulated GPU time (the
	// paper's eq. 3 speed for everything this engine decoded).
	TokensPerSecSim float64 `json:"tokens_per_sec_sim"`
	// TreeNodes/TreeBudget total draft-tree nodes proposed and the
	// node budget available to this strategy's decodes (zero for
	// linear strategies); TreeBudgetUtilization is their ratio.
	TreeNodes             uint64  `json:"tree_nodes"`
	TreeBudget            uint64  `json:"tree_budget"`
	TreeBudgetUtilization float64 `json:"tree_budget_utilization"`
	// GrammarPrunedNodes/GrammarDraftTokens total the draft nodes the
	// syntax oracle withheld from this strategy's trees and the nodes
	// its construct synthesis contributed (zero for non-grammar
	// strategies).
	GrammarPrunedNodes uint64 `json:"grammar_pruned_nodes"`
	GrammarDraftTokens uint64 `json:"grammar_draft_tokens"`
	// AcceptDepthHist buckets this strategy's decoding steps by
	// accepted length (entry i = steps emitting i+1 tokens, last entry
	// open-ended) — the per-strategy view the adaptive controller
	// sizes budgets from.
	AcceptDepthHist []uint64 `json:"accept_depth_hist"`
}

// Metrics is a point-in-time snapshot of engine counters.
type Metrics struct {
	Requests  uint64 `json:"requests"`
	Completed uint64 `json:"completed"`
	Canceled  uint64 `json:"canceled"`
	Failed    uint64 `json:"failed"`
	// Rejected counts TryGenerate backpressure rejections (HTTP 503s).
	Rejected uint64 `json:"rejected"`
	// Shed counts admission-control drops (Config.Admit refusals —
	// HTTP 429s in fleet mode).
	Shed uint64 `json:"shed"`

	// QueueWaitSeconds is the summed queue-wait time (enqueue to
	// scheduler pickup) of every dequeued task; QueueWaitMaxSeconds is
	// the worst single wait observed. Together with Completed they
	// expose how long requests sit behind the running batch under load.
	QueueWaitSeconds    float64 `json:"queue_wait_s"`
	QueueWaitMaxSeconds float64 `json:"queue_wait_max_s"`

	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// CacheHitRate is hits/(hits+misses), 0 when the cache is idle.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CacheEntries is the current LRU population.
	CacheEntries int `json:"cache_entries"`

	// DedupHits counts single-flight shares: concurrent identical
	// submissions that rode along on one decode.
	DedupHits uint64 `json:"dedup_hits"`
	// Inflight is the current single-flight table population.
	Inflight int `json:"inflight"`

	// PrefixCacheHits counts exact whole-prompt session reuses;
	// PrefixCachePartialHits counts partial reuses (a cached strict
	// token prefix was forked over the uncached suffix);
	// PrefixCacheMisses counts from-scratch session builds.
	// PrefixCacheTokensSaved totals the prompt tokens whose session
	// preparation reuse skipped, and PrefixCacheHitRate is
	// (hits+partial)/lookups. PrefixCacheEntries is the population.
	PrefixCacheHits        uint64  `json:"prefix_cache_hits"`
	PrefixCachePartialHits uint64  `json:"prefix_partial_hits"`
	PrefixCacheMisses      uint64  `json:"prefix_cache_misses"`
	PrefixCacheTokensSaved uint64  `json:"prefix_tokens_saved"`
	PrefixCacheHitRate     float64 `json:"prefix_cache_hit_rate"`
	PrefixCacheEntries     int     `json:"prefix_cache_entries"`

	QueueDepth int `json:"queue_depth"`
	Workers    int `json:"workers"`

	// SchedMaxBatch is the running batch's slot count.
	// SchedRunning/SchedParked are the scheduler's current batch
	// membership and parked-decode count; SchedOccupancy is
	// running/MaxBatch. Sweeps counts verification sweeps and
	// MeanSweepOccupancy the tasks each stepped — the utilization the
	// continuous batcher exists to raise. Preemptions counts decodes
	// parked mid-flight to make room (their session pages stay pinned
	// on the trie); Resumes counts their returns to the batch.
	SchedMaxBatch      int     `json:"sched_max_batch"`
	SchedRunning       int     `json:"sched_running"`
	SchedParked        int     `json:"sched_parked"`
	SchedOccupancy     float64 `json:"sched_occupancy"`
	Sweeps             uint64  `json:"sched_sweeps"`
	MeanSweepOccupancy float64 `json:"sched_mean_sweep_occupancy"`
	Preemptions        uint64  `json:"sched_preemptions"`
	Resumes            uint64  `json:"sched_resumes"`

	// PrefixCachePinnedPages/Bytes are the session pages currently
	// held resident by in-flight and parked decode leases;
	// PrefixCacheLeases counts lifetime lease acquisitions.
	PrefixCachePinnedPages int    `json:"prefix_pinned_pages"`
	PrefixCachePinnedBytes int64  `json:"prefix_pinned_bytes"`
	PrefixCacheLeases      uint64 `json:"prefix_leases"`

	CleanTokens uint64 `json:"clean_tokens"`
	Steps       uint64 `json:"steps"`
	// MeanAccepted is raw tokens per decoding step across all decodes.
	MeanAccepted float64 `json:"mean_accepted"`
	// AcceptDepthHist buckets decoding steps by accepted length:
	// entry i counts steps that emitted i+1 tokens, the final entry
	// everything at or past AcceptDepthBuckets. The mass above entry 0
	// is where speculative decoding pays.
	AcceptDepthHist []uint64 `json:"accept_depth_hist"`
	// TreeNodes/TreeBudget total draft-tree nodes proposed and the
	// node budget available across tree-drafting decodes;
	// TreeBudgetUtilization is their ratio (how much of the configured
	// tree the drafters actually fill).
	TreeNodes             uint64  `json:"tree_nodes_total"`
	TreeBudget            uint64  `json:"tree_budget_total"`
	TreeBudgetUtilization float64 `json:"tree_budget_utilization"`
	// GrammarPrunedNodes/GrammarDraftTokens total the draft nodes the
	// grammar oracle withheld and the nodes construct synthesis
	// contributed across grammar-strategy decodes.
	GrammarPrunedNodes uint64 `json:"grammar_pruned_nodes"`
	GrammarDraftTokens uint64 `json:"grammar_draft_tokens"`
	// WallSeconds is summed decode step time (busy time, not
	// wall-clock span: with W sweep workers it accrues up to W seconds
	// per second).
	WallSeconds float64 `json:"wall_seconds"`
	// TokensPerSecWall is clean tokens per busy-second — the engine's
	// real single-thread decode throughput.
	TokensPerSecWall float64 `json:"tokens_per_sec_wall"`
	// TokensPerSecSim is clean tokens over simulated GPU seconds.
	TokensPerSecSim float64 `json:"tokens_per_sec_sim"`

	// Adapt names the speculation controller's mode ("off", "shadow",
	// "on"); the remaining Adapt* fields mirror the controller's own
	// snapshot. AdaptLevel is the load-degradation rung (0 tree, 1
	// linear, 2 nodraft) and AdaptLevelName its spelling; the smoothed
	// signals it runs on are AdaptOccupancy / AdaptQueueFrac /
	// AdaptQueueWaitMS. AdaptDecisions counts Decide calls (shadow
	// included), AdaptReroutes strategy substitutions, AdaptBudget-
	// Resizes sized tree budgets, AdaptDowngrades decisions made above
	// the tree rung, AdaptExplorations deterministic exploration slots,
	// AdaptLevelChanges rung moves, and AdaptShadowed decisions that
	// shadow mode recorded without applying. All zero when Adapt is
	// "off".
	Adapt              string  `json:"adapt"`
	AdaptLevel         int     `json:"adapt_level"`
	AdaptLevelName     string  `json:"adapt_level_name,omitempty"`
	AdaptOccupancy     float64 `json:"adapt_occupancy"`
	AdaptQueueFrac     float64 `json:"adapt_queue_frac"`
	AdaptQueueWaitMS   float64 `json:"adapt_queue_wait_ms"`
	AdaptDecisions     uint64  `json:"adapt_decisions"`
	AdaptReroutes      uint64  `json:"adapt_reroutes"`
	AdaptBudgetResizes uint64  `json:"adapt_budget_resizes"`
	AdaptDowngrades    uint64  `json:"adapt_downgrades"`
	AdaptExplorations  uint64  `json:"adapt_explorations"`
	AdaptLevelChanges  uint64  `json:"adapt_level_changes"`
	AdaptShadowed      uint64  `json:"adapt_shadowed"`

	// PerStrategy groups counters by decoding strategy.
	PerStrategy map[string]StrategyMetrics `json:"per_strategy"`
}

// Metrics snapshots the engine's counters.
func (e *Engine) Metrics() Metrics {
	e.st.mu.Lock()
	defer e.st.mu.Unlock()
	m := Metrics{
		Requests:            e.st.requests,
		Completed:           e.st.completed,
		Canceled:            e.st.canceled,
		Failed:              e.st.failed,
		Rejected:            e.st.rejected,
		Shed:                e.st.shedded,
		QueueWaitSeconds:    e.st.queueWaitSum.Seconds(),
		QueueWaitMaxSeconds: e.st.queueWaitMax.Seconds(),
		CacheHits:           e.st.cacheHits,
		CacheMisses:         e.st.cacheMisses,
		DedupHits:           e.st.dedupHits,
		QueueDepth:          len(e.queue),
		Workers:             e.cfg.Workers,
		SchedMaxBatch:       e.cfg.MaxBatch,
		SchedRunning:        e.st.running,
		SchedParked:         e.st.parked,
		Sweeps:              e.st.sweeps,
		Preemptions:         e.st.preemptions,
		Resumes:             e.st.resumes,
		CleanTokens:         e.st.cleanTokens,
		Steps:               e.st.steps,
		WallSeconds:         e.st.wall.Seconds(),
		AcceptDepthHist:     append([]uint64(nil), e.st.acceptHist[:]...),
		TreeNodes:           e.st.treeNodes,
		TreeBudget:          e.st.treeBudget,
		GrammarPrunedNodes:  e.st.grammarPruned,
		GrammarDraftTokens:  e.st.grammarDraftTokens,
		PerStrategy:         map[string]StrategyMetrics{},
	}
	if m.TreeBudget > 0 {
		m.TreeBudgetUtilization = float64(m.TreeNodes) / float64(m.TreeBudget)
	}
	if lookups := m.CacheHits + m.CacheMisses; lookups > 0 {
		m.CacheHitRate = float64(m.CacheHits) / float64(lookups)
	}
	if e.cache != nil {
		m.CacheEntries = e.cache.len()
	}
	e.flightMu.Lock()
	m.Inflight = len(e.inflight)
	e.flightMu.Unlock()
	if e.sessions != nil {
		st := e.sessions.SessionStats()
		m.PrefixCacheHits = st.Hits
		m.PrefixCachePartialHits = st.PartialHits
		m.PrefixCacheMisses = st.Misses
		m.PrefixCacheTokensSaved = st.TokensSaved
		m.PrefixCacheHitRate = st.HitRate()
		m.PrefixCacheEntries = st.Entries
		m.PrefixCachePinnedPages = st.PinnedPages
		m.PrefixCachePinnedBytes = st.PinnedBytes
		m.PrefixCacheLeases = st.Leases
	}
	if m.SchedMaxBatch > 0 {
		m.SchedOccupancy = float64(m.SchedRunning) / float64(m.SchedMaxBatch)
	}
	if m.Sweeps > 0 {
		m.MeanSweepOccupancy = float64(e.st.sweptTasks) / float64(m.Sweeps)
	}
	if m.Steps > 0 {
		m.MeanAccepted = float64(e.st.rawTokens) / float64(m.Steps)
	}
	if m.WallSeconds > 0 {
		m.TokensPerSecWall = float64(m.CleanTokens) / m.WallSeconds
	}
	if e.st.simMS > 0 {
		m.TokensPerSecSim = float64(m.CleanTokens) / (e.st.simMS / 1000)
	}
	m.Adapt = e.adaptMode
	if m.Adapt == "" {
		m.Adapt = AdaptOff
	}
	m.AdaptShadowed = e.st.adaptShadowed
	if e.ctrl != nil {
		snap := e.ctrl.Snapshot()
		m.AdaptLevel = int(snap.Level)
		m.AdaptLevelName = snap.LevelName
		m.AdaptOccupancy = snap.Occupancy
		m.AdaptQueueFrac = snap.QueueFrac
		m.AdaptQueueWaitMS = snap.QueueWaitMS
		m.AdaptDecisions = snap.Decisions
		m.AdaptReroutes = snap.Reroutes
		m.AdaptBudgetResizes = snap.BudgetResizes
		m.AdaptDowngrades = snap.Downgrades
		m.AdaptExplorations = snap.Explorations
		m.AdaptLevelChanges = snap.LevelChanges
	}
	for name, ss := range e.st.perStrategy {
		sm := StrategyMetrics{
			Requests:           ss.requests,
			Completed:          ss.completed,
			CacheHits:          ss.cacheHits,
			DedupHits:          ss.dedupHits,
			TreeNodes:          ss.treeNodes,
			TreeBudget:         ss.treeBudget,
			GrammarPrunedNodes: ss.grammarPruned,
			GrammarDraftTokens: ss.grammarDraftTokens,
			AcceptDepthHist:    append([]uint64(nil), ss.acceptHist[:]...),
		}
		if ss.steps > 0 {
			sm.MeanAccepted = float64(ss.rawTokens) / float64(ss.steps)
		}
		if ss.simMS > 0 {
			sm.TokensPerSecSim = float64(ss.cleanTokens) / (ss.simMS / 1000)
		}
		if ss.treeBudget > 0 {
			sm.TreeBudgetUtilization = float64(ss.treeNodes) / float64(ss.treeBudget)
		}
		m.PerStrategy[name] = sm
	}
	return m
}

// Healthz implements Backend: liveness plus model/pool identity (the
// uptime key is added by the handler).
func (e *Engine) Healthz() map[string]any {
	return map[string]any{
		"status":      "ok",
		"model":       e.m.Config().Name,
		"scheme":      e.m.Scheme().String(),
		"workers":     e.Workers(),
		"queue_depth": e.QueueDepth(),
	}
}

// MetricsBody implements Backend: the JSON /metrics body (sans uptime).
func (e *Engine) MetricsBody() map[string]any {
	return map[string]any{"model": e.m.Config().Name, "engine": e.Metrics()}
}

// WritePrometheusTo implements Backend: the text exposition format.
func (e *Engine) WritePrometheusTo(w io.Writer, uptimeS float64) {
	writePrometheus(w, e.Metrics(), uptimeS, e.m.Config().Name)
}

// WriteEnginePrometheus renders any engine-shaped metrics snapshot in
// the Prometheus text exposition format — the cluster layer reuses it
// for its fleet-wide aggregate before appending fleet-only families.
func WriteEnginePrometheus(w io.Writer, m Metrics, uptimeS float64, modelName string) {
	writePrometheus(w, m, uptimeS, modelName)
}
