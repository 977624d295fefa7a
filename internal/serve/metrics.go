package serve

import (
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
)

// stats accumulates engine counters straight into a Metrics value under
// one mutex (contention is negligible next to a decode); Engine.Metrics
// fills in the fields read elsewhere and the derived rates.
type stats struct {
	mu sync.Mutex
	m  Metrics
	// perStrategy is m.PerStrategy while it accumulates: pointers, so a
	// counter bump is a plain field increment.
	perStrategy map[string]*StrategyMetrics
}

// AcceptDepthBuckets sizes the acceptance-depth histogram: buckets
// 1..AcceptDepthBuckets-1 tokens per step, plus one overflow bucket.
const AcceptDepthBuckets = 16

func (s *stats) init() {
	s.m.AcceptDepthHist = make([]uint64, AcceptDepthBuckets)
	s.perStrategy = map[string]*StrategyMetrics{}
}

func (s *stats) strategy(label string) *StrategyMetrics {
	ss := s.perStrategy[label]
	if ss == nil {
		ss = &StrategyMetrics{AcceptDepthHist: make([]uint64, AcceptDepthBuckets)}
		s.perStrategy[label] = ss
	}
	return ss
}

// count bumps one of s.m's counters.
func (s *stats) count(c *uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	*c++
}

func (s *stats) request(label string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.Requests++
	s.strategy(label).Requests++
}

func (s *stats) cacheHit(label string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.CacheHits++
	s.strategy(label).CacheHits++
}

// queueWait accounts the delay between a task entering the queue and
// the scheduler admitting it (recorded for every dequeued task, including
// ones whose context died while waiting — that wait is precisely the
// signal).
func (s *stats) queueWait(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.QueueWaitSeconds += d.Seconds()
	s.m.QueueWaitMaxSeconds = max(s.m.QueueWaitMaxSeconds, d.Seconds())
}

// sweep accounts one scheduled decode step taken with n decodes
// resident.
func (s *stats) sweep(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.Sweeps++
	s.m.SweptTasks += uint64(n)
}

func (s *stats) schedRunning(running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.SchedRunning = running
}

func (s *stats) complete(label string, res *core.Result, wall time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.Completed++
	s.m.WallSeconds += wall.Seconds()
	s.m.Steps += uint64(res.Steps)
	s.m.RawTokens += uint64(len(res.Tokens))
	s.m.CleanTokens += uint64(len(res.CleanTokens))
	s.m.SimSeconds += res.SimulatedMS / 1000
	s.m.TreeNodes += uint64(res.TreeNodes)
	s.m.TreeBudget += uint64(res.TreeBudget)
	s.m.GrammarPrunedNodes += uint64(res.GrammarPruned)
	s.m.GrammarDraftTokens += uint64(res.GrammarDraftTokens)
	ss := s.strategy(label)
	ss.Completed++
	ss.Steps += uint64(res.Steps)
	ss.RawTokens += uint64(len(res.Tokens))
	ss.CleanTokens += uint64(len(res.CleanTokens))
	ss.SimSeconds += res.SimulatedMS / 1000
	ss.TreeNodes += uint64(res.TreeNodes)
	ss.TreeBudget += uint64(res.TreeBudget)
	ss.GrammarPrunedNodes += uint64(res.GrammarPruned)
	ss.GrammarDraftTokens += uint64(res.GrammarDraftTokens)
	for _, n := range res.AcceptedPerStep {
		n = min(max(n, 1), AcceptDepthBuckets)
		s.m.AcceptDepthHist[n-1]++
		ss.AcceptDepthHist[n-1]++
	}
}

// snapshot copies the accumulated counters out from under the lock.
func (s *stats) snapshot() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.m
	m.AcceptDepthHist = slices.Clone(m.AcceptDepthHist)
	m.PerStrategy = make(map[string]StrategyMetrics, len(s.perStrategy))
	for name, ss := range s.perStrategy {
		sm := *ss
		sm.AcceptDepthHist = slices.Clone(sm.AcceptDepthHist)
		m.PerStrategy[name] = sm
	}
	return m
}

// StrategyMetrics is the per-decoding-strategy slice of a metrics
// snapshot, keyed by the strategy's display name ("NTP", "Medusa",
// "Ours", "PromptLookup"). Tagged like Metrics.
type StrategyMetrics struct {
	// Requests counts submissions (including cache hits).
	Requests uint64 `json:"requests" prom:"vgend_strategy_requests_total" help:"Submissions per decoding strategy."`
	// Completed counts finished decodes (cache hits excluded).
	Completed uint64 `json:"completed" prom:"vgend_strategy_completed_total" help:"Finished decodes per strategy."`
	// CacheHits counts LRU short-circuits.
	CacheHits uint64 `json:"cache_hits" prom:"vgend_strategy_cache_hits_total" help:"Result LRU hits per strategy."`
	// Steps, RawTokens (markers included), CleanTokens and SimSeconds are
	// the sums the rates below divide; window a rate from their deltas.
	Steps       uint64  `json:"steps" prom:"vgend_strategy_steps_total" help:"Decoding steps (forward passes) per strategy."`
	RawTokens   uint64  `json:"raw_tokens" prom:"vgend_strategy_raw_tokens_total" help:"Tokens emitted per strategy, marker tokens included."`
	CleanTokens uint64  `json:"clean_tokens" prom:"vgend_strategy_clean_tokens_total" help:"Clean tokens generated per strategy."`
	SimSeconds  float64 `json:"sim_seconds" prom:"vgend_strategy_sim_seconds_total" help:"Simulated GPU seconds per strategy."`
	// MeanAccepted is tokens emitted per decoding step — the paper's
	// mean accepted length, the quantity speculative decoding raises.
	MeanAccepted float64 `json:"mean_accepted" prom:"vgend_strategy_mean_accepted" help:"Tokens per decoding step per strategy." agg:"derived"`
	// TokensPerSecSim is clean tokens over simulated GPU time (the
	// paper's eq. 3 speed for everything this engine decoded).
	TokensPerSecSim float64 `json:"tokens_per_sec_sim" prom:"vgend_strategy_tokens_per_sec_sim" help:"Simulated tokens/s per strategy." agg:"derived"`
	// TreeNodes/TreeBudget total draft-tree nodes proposed and the
	// node budget available to this strategy's decodes (zero for
	// linear strategies); TreeBudgetUtilization is their ratio.
	TreeNodes             uint64  `json:"tree_nodes" prom:"vgend_strategy_tree_nodes_total" help:"Draft-tree nodes proposed per strategy."`
	TreeBudget            uint64  `json:"tree_budget"`
	TreeBudgetUtilization float64 `json:"tree_budget_utilization" prom:"vgend_strategy_tree_budget_utilization" help:"Draft-tree node-budget utilization per strategy." agg:"derived"`
	// GrammarPrunedNodes/GrammarDraftTokens total the draft nodes the
	// syntax oracle withheld from this strategy's trees and the nodes
	// its construct synthesis contributed (zero for non-grammar
	// strategies).
	GrammarPrunedNodes uint64 `json:"grammar_pruned_nodes" prom:"vgend_strategy_grammar_pruned_nodes_total" help:"Draft nodes withheld by the grammar oracle per strategy."`
	GrammarDraftTokens uint64 `json:"grammar_draft_tokens" prom:"vgend_strategy_grammar_draft_tokens_total" help:"Construct-chain draft nodes per strategy."`
	// AcceptDepthHist buckets this strategy's decoding steps by
	// accepted length (entry i = steps emitting i+1 tokens, last entry
	// open-ended); the per-strategy rows partition the engine-wide
	// AcceptDepthHist.
	AcceptDepthHist []uint64 `json:"accept_depth_hist" prom:"vgend_strategy_accept_depth_total" label:"depth" help:"Decoding steps by accepted length per strategy (last bucket open-ended)."`
}

// Metrics is a point-in-time snapshot of engine counters, and the one
// place each of them is declared: the struct tags drive the JSON body
// (json), the Prometheus exposition (Exposition.Struct) and the fleet
// roll-up (Aggregate). Adding a metric is one tagged field here plus
// the line that increments it. Beside json, a field may carry
//
//   - prom:"<family>" help:"…" — its Prometheus family: a counter if
//     the name ends in _total, else a gauge (untagged = JSON-only). A
//     string is an info gauge (value 1), a []uint64 1-based buckets
//     with an open last one, a map[string]uint64 a sample per key, each
//     under label:"<name>"; a map or slice of structs puts the key (or
//     the element's Name) under that label on every family inside. A
//     json omitempty field renders only when non-zero.
//   - agg:"max|derived" — how Aggregate folds it across replicas:
//     summed by default, max keeps the hottest replica's value, and
//     derived fields are recomputed from the folded sums by derive, as
//     they are for an engine's own snapshot.
//   - replica:"<family>" — a second family the field is exported under
//     per replica in a fleet's exposition, reusing help.
type Metrics struct {
	Requests  uint64 `json:"requests" prom:"vgend_requests_total" help:"Generation submissions, including cache hits."`
	Completed uint64 `json:"completed" prom:"vgend_completed_total" help:"Finished decodes (cache hits excluded)."`
	Canceled  uint64 `json:"canceled" prom:"vgend_canceled_total" help:"Decodes ended by context cancellation."`
	Failed    uint64 `json:"failed" prom:"vgend_failed_total" help:"Decodes ended by non-context errors."`
	// Rejected counts TryGenerate backpressure rejections (HTTP 503s).
	Rejected uint64 `json:"rejected" prom:"vgend_rejected_total" help:"Backpressure rejections (queue full)."`

	// QueueWaitSeconds is the summed queue-wait time (enqueue to
	// scheduler pickup) of every dequeued task; QueueWaitMaxSeconds is
	// the worst single wait observed. Together with Completed they
	// expose how long requests sit behind the running batch under load.
	QueueWaitSeconds    float64 `json:"queue_wait_s" prom:"vgend_queue_wait_seconds_total" help:"Summed queue-wait time (enqueue to worker pickup) in seconds."`
	QueueWaitMaxSeconds float64 `json:"queue_wait_max_s" prom:"vgend_queue_wait_max_seconds" help:"Worst single queue wait observed." agg:"max"`

	CacheHits   uint64 `json:"cache_hits" prom:"vgend_cache_hits_total" help:"Result LRU hits."`
	CacheMisses uint64 `json:"cache_misses" prom:"vgend_cache_misses_total" help:"Result LRU misses."`
	// CacheHitRate is hits/(hits+misses), 0 when the cache is idle.
	CacheHitRate float64 `json:"cache_hit_rate" replica:"vgend_replica_cache_hit_rate" help:"Result-LRU hit rate." agg:"derived"`
	// CacheEntries is the current LRU population.
	CacheEntries int `json:"cache_entries" prom:"vgend_cache_entries" help:"Current result LRU population."`

	// PrefixCacheHits counts exact whole-prompt session reuses;
	// PrefixCachePartialHits counts partial reuses (a cached strict
	// token prefix was forked over the uncached suffix);
	// PrefixCacheMisses counts from-scratch session builds.
	// PrefixCacheTokensSaved totals the prompt tokens whose session
	// preparation reuse skipped, and PrefixCacheHitRate is
	// (hits+partial)/lookups. PrefixCacheEntries is the population.
	PrefixCacheHits        uint64  `json:"prefix_cache_hits" prom:"vgend_prefix_cache_hits_total" help:"Exact whole-prompt session reuses."`
	PrefixCachePartialHits uint64  `json:"prefix_partial_hits" prom:"vgend_prefix_partial_hits_total" help:"Partial session reuses (cached token prefix forked over the suffix)."`
	PrefixCacheMisses      uint64  `json:"prefix_cache_misses" prom:"vgend_prefix_cache_misses_total" help:"Prompt-session builds."`
	PrefixCacheTokensSaved uint64  `json:"prefix_tokens_saved" prom:"vgend_prefix_tokens_saved_total" replica:"vgend_replica_prefix_tokens_saved_total" help:"Prompt tokens whose session preparation was skipped by reuse."`
	PrefixCacheHitRate     float64 `json:"prefix_cache_hit_rate" prom:"vgend_prefix_cache_hit_rate" replica:"vgend_replica_prefix_hit_rate" help:"Fraction of session lookups reusing any prefix (exact or partial)." agg:"derived"`
	PrefixCacheEntries     int     `json:"prefix_cache_entries" prom:"vgend_prefix_cache_entries" help:"Current prompt-session cache population."`

	QueueDepth int `json:"queue_depth" prom:"vgend_queue_depth" replica:"vgend_replica_queue_depth" help:"Requests waiting in the queue."`
	Workers    int `json:"workers" prom:"vgend_workers" help:"Decoder worker pool size."`

	// SchedMaxBatch is the running batch's slot count. SchedRunning is
	// the scheduler's current batch membership; SchedOccupancy is
	// running/MaxBatch. The sweep names outlive the barrier sweep:
	// Sweeps counts scheduled decode steps, SweptTasks sums the
	// resident decodes at each, and MeanSweepOccupancy, their ratio, is
	// the mean residency per step — the utilization the continuous
	// batcher exists to raise.
	SchedMaxBatch      int     `json:"sched_max_batch" prom:"vgend_sched_max_batch" help:"Continuous-scheduler batch slots."`
	SchedRunning       int     `json:"sched_running" prom:"vgend_sched_running" help:"Decodes currently in the running batch."`
	SchedOccupancy     float64 `json:"sched_occupancy" prom:"vgend_sched_occupancy" replica:"vgend_replica_sched_occupancy" help:"Running decodes over batch slots." agg:"derived"`
	Sweeps             uint64  `json:"sched_sweeps" prom:"vgend_sched_sweeps_total" help:"Scheduled decode steps."`
	SweptTasks         uint64  `json:"sched_swept_tasks" prom:"vgend_sched_swept_tasks_total" help:"Resident decodes, summed over scheduled decode steps."`
	MeanSweepOccupancy float64 `json:"sched_mean_sweep_occupancy" prom:"vgend_sched_mean_sweep_occupancy" help:"Mean resident decodes per scheduled decode step." agg:"derived"`

	// CleanTokens, RawTokens (markers included), Steps, WallSeconds and
	// SimSeconds are the sums the rates below divide. The rates are
	// lifetime gauges; for a rate over a window, divide deltas of the sums.
	CleanTokens uint64 `json:"clean_tokens" prom:"vgend_clean_tokens_total" help:"Clean tokens generated."`
	RawTokens   uint64 `json:"raw_tokens" prom:"vgend_raw_tokens_total" help:"Tokens emitted, marker tokens included."`
	Steps       uint64 `json:"steps" prom:"vgend_steps_total" help:"Decoding steps (forward passes)."`
	// MeanAccepted is raw tokens per decoding step across all decodes.
	MeanAccepted float64 `json:"mean_accepted" prom:"vgend_mean_accepted" help:"Raw tokens emitted per decoding step." agg:"derived"`
	// AcceptDepthHist buckets decoding steps by accepted length:
	// entry i counts steps that emitted i+1 tokens, the final entry
	// everything at or past AcceptDepthBuckets. The mass above entry 0
	// is where speculative decoding pays.
	AcceptDepthHist []uint64 `json:"accept_depth_hist" prom:"vgend_accept_depth_total" label:"depth" help:"Decoding steps by accepted length (tokens emitted per step; last bucket open-ended)."`
	// TreeNodes/TreeBudget total draft-tree nodes proposed and the
	// node budget available across tree-drafting decodes;
	// TreeBudgetUtilization is their ratio (how much of the configured
	// tree the drafters actually fill).
	TreeNodes             uint64  `json:"tree_nodes_total" prom:"vgend_tree_nodes_total" help:"Draft-tree nodes proposed across tree-drafting decodes."`
	TreeBudget            uint64  `json:"tree_budget_total" prom:"vgend_tree_budget_total" help:"Draft-tree node budget available across tree-drafting decodes."`
	TreeBudgetUtilization float64 `json:"tree_budget_utilization" prom:"vgend_tree_budget_utilization" help:"Fraction of the draft-tree node budget actually proposed." agg:"derived"`
	// GrammarPrunedNodes/GrammarDraftTokens total the draft nodes the
	// grammar oracle withheld and the nodes construct synthesis
	// contributed across grammar-strategy decodes.
	GrammarPrunedNodes uint64 `json:"grammar_pruned_nodes" prom:"vgend_grammar_pruned_nodes_total" help:"Draft nodes withheld by the grammar syntax oracle."`
	GrammarDraftTokens uint64 `json:"grammar_draft_tokens" prom:"vgend_grammar_draft_tokens_total" help:"Draft nodes contributed by synthesized grammar constructs."`
	// WallSeconds is summed decode step time (busy time, not
	// wall-clock span: with W workers it accrues up to W seconds
	// per second); SimSeconds is the same decodes' simulated GPU time.
	WallSeconds float64 `json:"wall_seconds" prom:"vgend_wall_seconds_total" help:"Summed worker decode time in seconds."`
	SimSeconds  float64 `json:"sim_seconds" prom:"vgend_sim_seconds_total" help:"Summed simulated GPU decode time in seconds."`
	// TokensPerSecWall is clean tokens per busy-second — the engine's
	// real single-thread decode throughput.
	TokensPerSecWall float64 `json:"tokens_per_sec_wall" prom:"vgend_tokens_per_sec_wall" help:"Clean tokens per worker-busy-second." agg:"derived"`
	// TokensPerSecSim is clean tokens over simulated GPU seconds.
	TokensPerSecSim float64 `json:"tokens_per_sec_sim" prom:"vgend_tokens_per_sec_sim" help:"Clean tokens per simulated GPU second (paper eq. 3)." agg:"derived"`

	// PerStrategy groups counters by decoding strategy.
	PerStrategy map[string]StrategyMetrics `json:"per_strategy" label:"strategy"`
}

func ratio(num, den float64) float64 {
	if den > 0 {
		return num / den
	}
	return 0
}

// derive computes every agg:"derived" field from the sums beside it —
// the one home of the rate formulas, for an engine's snapshot and for
// Aggregate's fold alike.
func (m *Metrics) derive() {
	prefixReuses := float64(m.PrefixCacheHits + m.PrefixCachePartialHits)
	m.CacheHitRate = ratio(float64(m.CacheHits), float64(m.CacheHits+m.CacheMisses))
	m.PrefixCacheHitRate = ratio(prefixReuses, prefixReuses+float64(m.PrefixCacheMisses))
	m.SchedOccupancy = ratio(float64(m.SchedRunning), float64(m.SchedMaxBatch))
	m.MeanSweepOccupancy = ratio(float64(m.SweptTasks), float64(m.Sweeps))
	m.MeanAccepted = ratio(float64(m.RawTokens), float64(m.Steps))
	m.TreeBudgetUtilization = ratio(float64(m.TreeNodes), float64(m.TreeBudget))
	m.TokensPerSecWall = ratio(float64(m.CleanTokens), m.WallSeconds)
	m.TokensPerSecSim = ratio(float64(m.CleanTokens), m.SimSeconds)
	for name, sm := range m.PerStrategy {
		sm.MeanAccepted = ratio(float64(sm.RawTokens), float64(sm.Steps))
		sm.TokensPerSecSim = ratio(float64(sm.CleanTokens), sm.SimSeconds)
		sm.TreeBudgetUtilization = ratio(float64(sm.TreeNodes), float64(sm.TreeBudget))
		m.PerStrategy[name] = sm
	}
}

// Metrics snapshots the engine's counters.
func (e *Engine) Metrics() Metrics {
	m := e.st.snapshot()
	m.QueueDepth = len(e.queue)
	m.Workers = e.cfg.Workers
	m.SchedMaxBatch = e.cfg.MaxBatch
	if e.cache != nil {
		m.CacheEntries = e.cache.len()
	}
	st := e.sessions.SessionStats()
	m.PrefixCacheHits = st.Hits
	m.PrefixCachePartialHits = st.PartialHits
	m.PrefixCacheMisses = st.Misses
	m.PrefixCacheTokensSaved = st.TokensSaved
	m.PrefixCacheEntries = st.Entries
	m.derive()
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
	x := NewExposition(e.m.Config().Name, uptimeS)
	x.Struct(e.Metrics())
	x.Render(w)
}
