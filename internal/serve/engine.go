// Package serve is the concurrency layer between the speculative
// decoder and its consumers: the vgend HTTP daemon, the benchmark
// harness (internal/experiments) and in-process embedders.
//
// An Engine owns a continuous scheduler over one trained model: every
// in-flight decode advances one verification sweep at a time through
// the step-wise core API, requests join the running batch the moment a
// slot frees and leave it the step they finish, and long decodes are
// preempted — checkpointed after a sweep, their session pages parked
// on the prefix trie — whenever shorter work is waiting, then resumed
// round-robin. That keeps the verifier's batch full (the regime where
// speculative decoding actually pays) and keeps one long generation
// from serializing every short request behind it. Around the
// scheduler sit a bounded request queue with explicit backpressure, an
// LRU cache keyed on (model, prompt, options, seed) that
// short-circuits repeat generations, a single-flight table that
// collapses concurrent identical submissions onto one decode, and a
// shared prefix cache (model.TrieCache, a token-prefix trie) that
// reuses prompt-derived session state across requests — including
// partial reuse, where a prompt sharing only a token prefix with
// earlier traffic forks the cached prefix session and prepares just
// the suffix. Decoding stays deterministic per seed regardless of
// scheduling: each request carries its own RNG seed in core.Options,
// preemption checkpoints fall only between verification sweeps (which
// the step-wise loop makes output-invariant by construction), and
// decodes share nothing but the read-only model and the immutable
// cached sessions.
//
// Requests choose their decoding strategy per call
// (core.Options.Strategy), so one daemon serves NTP, Medusa, Ours and
// PromptLookup traffic side by side with per-strategy metrics.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/core/spec/adapt"
	"repro/internal/model"
	"repro/internal/trace"
)

// Errors reported by Engine submission.
var (
	// ErrQueueFull is returned by TryGenerate when the bounded request
	// queue has no free slot — the backpressure signal the HTTP layer
	// turns into 503.
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrClosed is returned for submissions after Close.
	ErrClosed = errors.New("serve: engine closed")
	// ErrUnknownModel is wrapped by fleet routing when a request names a
	// model no replica serves; the HTTP layer turns it into 400. It
	// lives here (not in internal/cluster) so the HTTP error mapping
	// needs no dependency on the cluster layer.
	ErrUnknownModel = errors.New("serve: no replica serves the requested model")
)

// ShedError is an admission-control rejection: the request was dropped
// by a load-shedding policy before consuming a queue slot or decode
// work. The HTTP layer maps it to 429 with a Retry-After header.
type ShedError struct {
	// Policy names the shedding policy that dropped the request
	// ("deadline", "priority", "budget").
	Policy string
	// Reason is the human-readable drop explanation.
	Reason string
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: request shed by %s policy: %s (retry after %s)", e.Policy, e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// RetryAfterSeconds renders the backoff as whole seconds for the HTTP
// Retry-After header (minimum 1: a zero header is meaningless to
// clients).
func (e *ShedError) RetryAfterSeconds() int {
	s := int(e.RetryAfter / time.Second)
	if e.RetryAfter%time.Second != 0 {
		s++
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Priority is a request's admission class. The zero value is
// PriorityNormal, so requests that never think about priorities get the
// middle class. Engines ignore priority entirely — it exists for
// cluster-level admission policies, which shed lower classes first
// under load.
type Priority int

// Priority classes, shed in reverse order (Low first, High last).
const (
	PriorityNormal Priority = iota
	PriorityHigh
	PriorityLow
)

// String names the class as the HTTP API spells it.
func (p Priority) String() string {
	switch p {
	case PriorityHigh:
		return "high"
	case PriorityLow:
		return "low"
	}
	return "normal"
}

// ParsePriority parses the HTTP API spelling of a priority class; empty
// selects PriorityNormal.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	case "low":
		return PriorityLow, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want high, normal or low)", s)
}

// Config sizes an Engine. Zero values select defaults.
type Config struct {
	// MaxBatch caps concurrently running decodes — the batch the
	// per-sweep verification is batched across (default
	// max(8, 2×Workers)). Requests past it queue, and parked decodes
	// wait for a slot.
	MaxBatch int
	// PreemptQuantum is how many verification sweeps a decode may hold
	// a batch slot while other requests are waiting before it is
	// preempted: parked with its session pages pinned, its slot handed
	// over, resumed round-robin. 0 selects the default (64); negative
	// disables preemption.
	PreemptQuantum int
	// Workers is the per-sweep decode parallelism (default GOMAXPROCS).
	Workers int
	// QueueSize bounds the pending-request queue (default 256). A full
	// queue blocks Generate and rejects TryGenerate.
	QueueSize int
	// CacheSize is the LRU capacity in generations: 0 selects the
	// default (512), negative disables caching (the benchmark harness
	// disables it so every decode pays its simulated cost).
	CacheSize int
	// PrefixCacheMode selects the shared prompt-session cache:
	// PrefixCacheTrie (the default) keys sessions on true token
	// prefixes and forks cached prefix sessions over only the uncached
	// suffix; PrefixCacheOff disables session caching. Either way
	// outputs are byte-identical — the cache only changes how much
	// session preparation is recomputed (pinned by the differential
	// harness in internal/experiments). NewEngine panics on any other
	// spelling; validate external input with ParsePrefixCacheMode.
	PrefixCacheMode string
	// PrefixCacheBytes caps the trie cache's estimated retained memory
	// (0 selects model.DefaultTrieBytes).
	PrefixCacheBytes int64
	// DefaultTreeBudget, when positive, fills Options.TreeBudget for
	// requests that left it unset — the daemon-wide draft-tree node
	// budget behind vgend -tree-budget. Requests naming their own
	// budget are never overridden; zero leaves the decoder's default
	// (spec.DefaultTreeBudget) in charge.
	DefaultTreeBudget int
	// Adapt selects the load-aware speculation controller
	// (internal/core/spec/adapt): AdaptOff (the default) disables it;
	// AdaptShadow consults the controller for every submission and
	// records its decisions in /metrics without applying any — the
	// rollout mode; AdaptOn applies them. Applied decisions are
	// deliberately narrow so the controller stays lossless: requests
	// that named neither a mode nor a strategy
	// (Request.NoExplicitStrategy) may be rerouted to the controller's
	// strategy pick, and tree decodes that left Options.TreeBudget
	// unset get a budget sized from the live accept-depth distribution
	// (skipped when DefaultTreeBudget pins a static one). Explicit
	// strategy and budget choices are never overridden, so outputs stay
	// byte-identical per (prompt, seed, strategy, budget) whatever the
	// controller decides. The load-degradation ladder is driven by the
	// scheduler's sweep signals and queue wait. NewEngine panics on any
	// other spelling; validate external input with ParseAdaptMode.
	Adapt string
	// NoDedup disables single-flight deduplication of identical
	// concurrent requests (diagnostics; dedup never changes outputs
	// because decodes are deterministic per (prompt, options, seed)).
	NoDedup bool
	// Admit, if set, gates every submission that would consume a queue
	// slot: a non-nil error (typically a *ShedError) rejects the
	// request before it is enqueued. Cache hits and single-flight
	// followers bypass the gate — they consume no decode work. The
	// cluster layer installs its load-shedding policy chain here, after
	// the single-flight registration, so a shed leader resolves its
	// flight with the shed error and followers retry on their own
	// behalf (see resolve).
	Admit func(ctx context.Context, req Request) error
	// StepFault, if set, is the fault-injection plane: it is consulted
	// once per verification sweep of every running decode. A returned
	// error aborts the decode with that error (a crashed replica); a
	// hook that blocks wedges the decode — and, because sweeps are
	// synchronous, the whole scheduler — until it returns (a hung
	// replica); a hook that sleeps models a slow one. Hooks MUST honour
	// ctx and return once it dies, or Close can wedge behind them. Used
	// by the chaos/fault-injection tier (internal/experiments) to prove
	// the fleet's breakers and hedges recover; nil in production.
	StepFault func(ctx context.Context) error
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 2 * c.Workers
		if c.MaxBatch < 8 {
			c.MaxBatch = 8
		}
	}
	if c.PreemptQuantum == 0 {
		c.PreemptQuantum = 64
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.CacheSize == 0 {
		c.CacheSize = 512
	}
	if c.PrefixCacheMode == "" {
		c.PrefixCacheMode = PrefixCacheTrie
	}
	return c
}

// Prefix-cache modes (Config.PrefixCacheMode, vgend -prefix-cache).
const (
	// PrefixCacheTrie is the token-prefix trie with copy-on-extend
	// sessions (the default).
	PrefixCacheTrie = "trie"
	// PrefixCacheOff disables session caching.
	PrefixCacheOff = "off"
)

// Speculation-controller modes (Config.Adapt, vgend -adapt).
const (
	// AdaptOff disables the controller (the default).
	AdaptOff = "off"
	// AdaptOn applies controller decisions to eligible requests.
	AdaptOn = "on"
	// AdaptShadow records every decision without applying any: metrics
	// show what the controller would have done while outputs provably
	// match AdaptOff.
	AdaptShadow = "shadow"
)

// ParseAdaptMode validates an adaptive-speculation mode name (empty
// selects off).
func ParseAdaptMode(s string) (string, error) {
	switch s {
	case "", AdaptOff:
		return AdaptOff, nil
	case AdaptOn:
		return AdaptOn, nil
	case AdaptShadow:
		return AdaptShadow, nil
	}
	return "", fmt.Errorf("unknown adapt mode %q (want on, shadow or off)", s)
}

// ParsePrefixCacheMode validates a prefix-cache mode name (empty
// selects the trie default).
func ParsePrefixCacheMode(s string) (string, error) {
	switch s {
	case "", PrefixCacheTrie:
		return PrefixCacheTrie, nil
	case PrefixCacheOff, "none":
		return PrefixCacheOff, nil
	}
	return "", fmt.Errorf("unknown prefix-cache mode %q (want trie or off)", s)
}

// Request is one generation to perform.
type Request struct {
	// Prompt is the natural-language description (wrapped in the
	// training prompt template by the decoder).
	Prompt string
	// Options forwards to core.Decoder; the zero value decodes
	// greedily with the "ntp" strategy and model defaults.
	Options core.Options
	// OnStep, if set, streams decoding steps as they complete. The
	// callback runs on a sweep goroutine; streaming requests bypass
	// the cache on both read and write (a cache hit has no steps to
	// replay, and a stored result would lie about having streamed).
	// Because the callback typically captures caller-owned state (an
	// HTTP response writer), Generate does not return a streaming
	// request — even on context cancellation — until the scheduler is
	// done with it and the callback can no longer fire; the decode
	// loop polls the context every forward pass, so that wait stays
	// short.
	OnStep core.StepFn
	// Model names the backbone this request wants ("codellama",
	// "codet5p"); empty accepts any. A single Engine — bound to exactly
	// one model — ignores it; a cluster.Fleet routes on it and fails
	// with ErrUnknownModel when no replica serves the name.
	Model string
	// Priority is the request's admission class. Engines ignore it;
	// cluster shedding policies drop lower classes first under load.
	Priority Priority
	// Client identifies the submitter for per-client budget policies
	// (empty submitters share one anonymous bucket).
	Client string
	// NoExplicitStrategy marks a request that named no strategy (under
	// either wire spelling) — its Options carry the fleet-wide default. A
	// fleet replica configured with its own DefaultStrategy substitutes
	// that for such requests; explicit choices are never overridden.
	NoExplicitStrategy bool
}

// Response is the outcome of one Request.
type Response struct {
	// Result is the generation (possibly partial if Err is a context
	// error). Cached and deduplicated responses share one Result value
	// across callers — treat it as immutable.
	Result *core.Result
	// Cached reports an LRU short-circuit (no decode ran).
	Cached bool
	// Deduped reports a single-flight share: an identical request was
	// already decoding, and this response rode along on its result
	// (no extra decode ran).
	Deduped bool
	// Err is the per-request error (context cancellation, ErrClosed).
	Err error
	// Wall is the decode's own step time (zero for cached responses;
	// the leader's decode time for deduplicated ones).
	Wall time.Duration
	// QueueWait is how long the request sat in the bounded queue before
	// a scheduler slot picked it up (zero for cache hits; the leader's
	// wait for deduplicated responses). Always recorded — it needs no
	// tracer — so clients can split wall time into queue vs decode.
	QueueWait time.Duration
	// Strategy is the canonical display name of the strategy that
	// decoded this response ("NTP", "Medusa", "Ours", "PromptLookup").
	// It reflects per-replica default-strategy substitution, which the
	// submitting request cannot see.
	Strategy string
	// Replica names the fleet replica that served this response (empty
	// outside fleet mode).
	Replica string
}

// task is one queued request with its completion channel.
type task struct {
	req Request
	// promptIDs is the prompt's canonical tokenization, computed once at
	// submission (it also derives key); the scheduler decodes from it
	// directly instead of re-encoding the prompt text.
	promptIDs []int
	ctx       context.Context
	done      chan *Response // buffered(1): the scheduler never blocks on delivery
	// enqueued is when the task entered the queue; the scheduler
	// accounts the pickup delay as queue-wait time.
	enqueued time.Time
	// wait is the measured queue wait, recorded at pickup and echoed on
	// the Response; qspan is the queue span when the request is traced.
	wait  time.Duration
	qspan *trace.Span
	// key is the request's canonical cache key (always set); fl carries
	// the single-flight registration when this task leads one, and the
	// scheduler resolves the flight on completion.
	key cacheKey
	fl  *flight
}

// flight is one in-progress decode that identical concurrent requests
// share: followers block on done and read resp — x/sync/singleflight
// semantics, including error sharing.
type flight struct {
	done chan struct{}
	resp *Response
}

// Engine dispatches generation requests through the continuous
// scheduler (sched.go).
type Engine struct {
	m        *model.Model
	cfg      Config
	queue    chan *task
	cache    *lruCache        // nil when disabled
	sessions *model.TrieCache // nil when PrefixCacheOff

	flightMu sync.Mutex // guards inflight
	inflight map[cacheKey]*flight

	// memoMu guards keyMemo, a prompt-string → canonical-token-ids memo
	// so repeat submissions (the result LRU's whole clientele) skip BPE
	// re-tokenization on the hot path. Reset wholesale when full —
	// cheaper than LRU bookkeeping and just as effective on the repeat-
	// heavy traffic it exists for. The cached slices are shared and
	// never mutated (decodes copy before appending).
	memoMu  sync.RWMutex
	keyMemo map[string][]int

	// ctrl is the adaptive speculation controller (nil when Adapt is
	// off); adaptMode is the parsed Config.Adapt.
	ctrl      *adapt.Controller
	adaptMode string

	quit chan struct{}
	wg   sync.WaitGroup

	mu     sync.RWMutex // guards closed and the enqueue/Close handoff
	closed bool

	st stats
}

// NewEngine starts the scheduler over m. The model must be fully
// trained before the first request: sweeps read it concurrently and
// model training is not synchronized with reads.
func NewEngine(m *model.Model, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		m:        m,
		cfg:      cfg,
		queue:    make(chan *task, cfg.QueueSize),
		inflight: map[cacheKey]*flight{},
		keyMemo:  map[string][]int{},
		quit:     make(chan struct{}),
	}
	if cfg.CacheSize > 0 {
		e.cache = newLRUCache(cfg.CacheSize)
	}
	// An unknown mode is programmer error (the HTTP/flag layers validate
	// their own input): panic rather than silently picking a cache with
	// a different memory profile than the one asked for — the same
	// contract as Generate's panic on an unknown strategy name.
	mode, err := ParsePrefixCacheMode(cfg.PrefixCacheMode)
	if err != nil {
		panic("serve: " + err.Error())
	}
	if mode == PrefixCacheTrie {
		e.sessions = model.NewTrieCache(cfg.PrefixCacheBytes)
	}
	e.st.init()
	adaptMode, err := ParseAdaptMode(cfg.Adapt)
	if err != nil {
		panic("serve: " + err.Error())
	}
	e.adaptMode = adaptMode
	if adaptMode != AdaptOff {
		// Routing candidates depend on what the model was trained with:
		// without Medusa heads the head-based strategies cannot draft,
		// so routing is restricted to self-speculative and plain ones.
		cands := []string{"OursTree", "Ours", "PromptLookup", "NTP"}
		if m.Scheme() == model.SchemeNTP {
			cands = []string{"LookupTree", "PromptLookup", "NTP"}
		}
		ctrl, err := adapt.New(adapt.Config{Candidates: cands})
		if err != nil {
			panic("serve: " + err.Error())
		}
		e.ctrl = ctrl
	}
	e.wg.Add(1)
	go e.scheduler()
	return e
}

// Model exposes the engine's model (the HTTP layer reports its name).
func (e *Engine) Model() *model.Model { return e.m }

// Workers reports the per-sweep decode parallelism.
func (e *Engine) Workers() int { return e.cfg.Workers }

// QueueDepth reports the number of requests waiting in the queue (not
// yet admitted by the scheduler).
func (e *Engine) QueueDepth() int { return len(e.queue) }

// QueueCap reports the bounded queue's capacity (admission policies
// compute occupancy against it).
func (e *Engine) QueueCap() int { return cap(e.queue) }

// Generate runs one request, blocking for a queue slot if the engine is
// saturated. The returned error (context cancellation, ErrClosed) is
// also recorded on the Response when one exists.
func (e *Engine) Generate(ctx context.Context, req Request) (*Response, error) {
	return e.submit(ctx, req, true)
}

// TryGenerate is Generate with fail-fast backpressure: if the request
// queue has no free slot it returns ErrQueueFull immediately instead of
// blocking.
func (e *Engine) TryGenerate(ctx context.Context, req Request) (*Response, error) {
	return e.submit(ctx, req, false)
}

// GenerateBatch enqueues every request before waiting on any, so the
// whole slice is in flight together; responses align index-for-index
// with reqs (never nil), with per-request failures on Response.Err.
// Determinism per seed makes the outcome independent of how the batch
// is scheduled.
func (e *Engine) GenerateBatch(ctx context.Context, reqs []Request) []*Response {
	return e.generateBatch(ctx, reqs, true)
}

func (e *Engine) generateBatch(ctx context.Context, reqs []Request, wait bool) []*Response {
	if ctx == nil {
		ctx = context.Background()
	}
	tasks := make([]*task, len(reqs))
	flights := make([]*flight, len(reqs))
	out := make([]*Response, len(reqs))
	reqs = append([]Request(nil), reqs...) // canonicalized copy; the caller's slice stays untouched
	for i, req := range reqs {
		if err := e.modelMismatch(req); err != nil {
			out[i] = &Response{Err: err}
			continue
		}
		req = e.applyAdapt(req)
		// Canonical options make equivalently-spelled requests share
		// cache entries and flights (see core.Options.Canonical).
		req.Options = e.canonicalOptions(req.Options)
		reqs[i] = req
		e.st.request(req.Options.StrategyLabel())
		ids, key := e.canonicalize(req)
		if resp := e.cacheLookup(req, key); resp != nil {
			out[i] = resp
			continue
		}
		t, f, err := e.startOrJoin(ctx, req, ids, key, wait)
		if err != nil {
			out[i] = &Response{Err: err}
			continue
		}
		tasks[i], flights[i] = t, f
	}
	for i, t := range tasks {
		if f := flights[i]; f != nil {
			resp := waitFlight(ctx, f)
			if leaderAborted(resp, ctx) || leaderShed(resp) {
				// The leader's client died (or its submission was shed),
				// not this item's: decode fresh under the batch's own
				// context and admission fate (see resolve).
				ids, key := e.canonicalize(reqs[i])
				fresh, err := e.resolve(ctx, reqs[i], ids, key, wait)
				if err != nil {
					fresh = &Response{Err: err}
				}
				resp = fresh
			}
			out[i] = resp
			continue
		}
		if t == nil {
			continue
		}
		if reqs[i].OnStep != nil {
			out[i] = <-t.done // see Request.OnStep: no early return
			continue
		}
		select {
		case out[i] = <-t.done:
		case <-ctx.Done():
			out[i] = &Response{Err: ctx.Err()}
		}
	}
	return out
}

// TryGenerateBatch is GenerateBatch with fail-fast backpressure: items
// that find no free queue slot come back with ErrQueueFull on their
// Response instead of waiting — so a big batch cannot monopolize the
// queue past its bound the way blocking enqueues would.
func (e *Engine) TryGenerateBatch(ctx context.Context, reqs []Request) []*Response {
	return e.generateBatch(ctx, reqs, false)
}

// modelMismatch reports a request naming a backbone other than this
// engine's (matching the fleet's spellings: config name or the
// daemon-flag alias without "-sim", case-folded). A single engine must
// refuse such requests rather than silently answer with the wrong
// model — the same contract a fleet enforces by routing.
func (e *Engine) modelMismatch(req Request) error {
	if req.Model == "" {
		return nil
	}
	want := strings.ToLower(req.Model)
	own := strings.ToLower(e.m.Config().Name)
	if want == own || want == strings.TrimSuffix(own, "-sim") {
		return nil
	}
	return fmt.Errorf("%w: %q (this engine serves %s)", ErrUnknownModel, req.Model, e.m.Config().Name)
}

func (e *Engine) submit(ctx context.Context, req Request, wait bool) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.modelMismatch(req); err != nil {
		return nil, err
	}
	req = e.applyAdapt(req)
	// Canonical options make equivalently-spelled requests share cache
	// entries and flights (see core.Options.Canonical).
	req.Options = e.canonicalOptions(req.Options)
	e.st.request(req.Options.StrategyLabel())
	ids, key := e.canonicalize(req)
	if resp := e.cacheLookup(req, key); resp != nil {
		return resp, nil
	}
	return e.resolve(ctx, req, ids, key, wait)
}

// adaptFeatures computes the cheap prompt features the controller
// classifies on: the canonical token count (memoized — repeat traffic
// pays nothing), a read-only prefix-trie probe, and one lexer pass.
func (e *Engine) adaptFeatures(req Request) adapt.Features {
	ids := e.canonicalIDs(req.Prompt)
	f := adapt.Features{
		PromptTokens: len(ids),
		MaxNewTokens: req.Options.MaxNewTokens,
		Construct:    adapt.Classify(req.Prompt),
	}
	if e.sessions != nil {
		f.CachedTokens = e.sessions.CachedPrefixLen(ids)
	}
	return f
}

// applyAdapt consults the speculation controller for one submission.
// It runs BEFORE canonicalOptions, so an applied decision changes the
// request's cache/single-flight key exactly as if the client had
// spelled the chosen configuration itself — adapted and explicit
// requests for the same configuration share entries and flights. In
// shadow mode the decision is recorded and nothing changes.
func (e *Engine) applyAdapt(req Request) Request {
	if e.ctrl == nil {
		return req
	}
	canon := req.Options.Canonical()
	d := e.ctrl.Decide(e.adaptFeatures(req), adapt.Request{
		Strategy:   canon.StrategyLabel(),
		Explicit:   !req.NoExplicitStrategy,
		TreeBudget: req.Options.TreeBudget,
	})
	if e.adaptMode != AdaptOn {
		e.st.count(&e.st.m.AdaptShadowed)
		return req
	}
	if d.Rerouted {
		req.Options.Strategy = d.Strategy
	}
	// Sized budgets only fill a hole the decoder would otherwise fill
	// with its static default: an explicit request budget or a pinned
	// engine-wide DefaultTreeBudget always wins.
	if d.TreeBudget > 0 && req.Options.TreeBudget <= 0 && e.cfg.DefaultTreeBudget <= 0 {
		req.Options.TreeBudget = d.TreeBudget
	}
	return req
}

// observeResult feeds a finished decode back into the controller's
// per-strategy and per-class estimates.
func (e *Engine) observeResult(req Request, label string, res *core.Result) {
	if e.ctrl == nil {
		return
	}
	f := e.adaptFeatures(req)
	e.ctrl.Observe(adapt.Outcome{
		Strategy:        label,
		Class:           adapt.ClassOf(f),
		AcceptedPerStep: res.AcceptedPerStep,
		TreeNodes:       res.TreeNodes,
		TreeBudget:      res.TreeBudget,
		CleanTokens:     len(res.CleanTokens),
		SimulatedMS:     res.SimulatedMS,
	})
}

// canonicalOptions applies the engine-level option defaults (the
// draft-tree node budget) and canonicalizes the strategy spelling so
// equivalently-spelled requests share cache entries and flights. The
// budget default runs BEFORE canonicalization so a request relying on
// the daemon default and one spelling it explicitly key identically.
func (e *Engine) canonicalOptions(o core.Options) core.Options {
	if e.cfg.DefaultTreeBudget > 0 && o.TreeBudget == 0 {
		o.TreeBudget = e.cfg.DefaultTreeBudget
	}
	return o.Canonical()
}

// canonicalize tokenizes a request's prompt exactly once, returning the
// canonical token ids (which the scheduler decodes from) and the derived
// cache/single-flight key. Both go through the same shared helpers the
// decoder and the prefix trie key on (model.CanonicalPromptIDs +
// model.PromptKeyString): spellings that tokenize identically — and
// therefore decode identically — share one entry, and the serving key
// space can never drift from the decoder's. Options must already be
// canonical.
func (e *Engine) canonicalize(req Request) ([]int, cacheKey) {
	ids := e.canonicalIDs(req.Prompt)
	return ids, cacheKey{prompt: model.PromptKeyString(ids), opts: req.Options}
}

// keyMemoCap bounds the tokenization memo's entry count and
// keyMemoMaxPrompt its per-entry size (see Engine.keyMemo). Together
// they cap retained memo heap at a few MiB: prompts past the size cut
// are tokenized every time instead of pinning megabytes of string per
// slot, which is the right trade — the memo exists for short repeated
// prompts, not one-off bulk payloads.
const (
	keyMemoCap       = 4096
	keyMemoMaxPrompt = 4 << 10
)

// canonicalIDs tokenizes a prompt through the memo.
func (e *Engine) canonicalIDs(prompt string) []int {
	e.memoMu.RLock()
	ids, ok := e.keyMemo[prompt]
	e.memoMu.RUnlock()
	if ok {
		return ids
	}
	ids = model.CanonicalPromptIDs(e.m.Tokenizer(), prompt)
	if len(prompt) > keyMemoMaxPrompt {
		return ids
	}
	e.memoMu.Lock()
	if len(e.keyMemo) >= keyMemoCap {
		clear(e.keyMemo)
	}
	e.keyMemo[prompt] = ids
	e.memoMu.Unlock()
	return ids
}

// requestKey is canonicalize for callers that only need the key.
func (e *Engine) requestKey(req Request) cacheKey {
	_, key := e.canonicalize(req)
	return key
}

// resolve runs the submission flow after accounting and cache lookup:
// lead a decode or join an identical in-flight one, then wait. A
// follower whose flight fails with the LEADER's context error — the
// leader's client went away, not ours — retries with a fresh
// submission rather than inheriting a cancellation it did not cause;
// each retry either becomes the new leader (decoding under this
// caller's own live context) or joins a newer flight, so the loop
// always makes progress.
func (e *Engine) resolve(ctx context.Context, req Request, ids []int, key cacheKey, wait bool) (*Response, error) {
	for {
		t, f, err := e.startOrJoin(ctx, req, ids, key, wait)
		if err != nil {
			return nil, err
		}
		if f != nil {
			resp := waitFlight(ctx, f)
			if leaderAborted(resp, ctx) || leaderShed(resp) {
				continue
			}
			return resp, resp.Err
		}
		if req.OnStep != nil {
			// No early return for streaming requests: the caller's OnStep
			// state must not outlive this call while a sweep can still
			// invoke it (see Request.OnStep).
			resp := <-t.done
			return resp, resp.Err
		}
		select {
		case resp := <-t.done:
			return resp, resp.Err
		case <-ctx.Done():
			// The task stays queued; the scheduler will observe the dead
			// context and discard it into the buffered done channel.
			return nil, ctx.Err()
		}
	}
}

// leaderAborted reports a follower outcome that reflects the flight
// leader's context dying while this caller's own context is still
// live. Non-context errors stay shared (deterministic decodes fail
// identically on retry), as do this caller's own context errors.
func leaderAborted(resp *Response, ctx context.Context) bool {
	if resp.Err == nil || ctx.Err() != nil {
		return false
	}
	return errors.Is(resp.Err, context.Canceled) || errors.Is(resp.Err, context.DeadlineExceeded)
}

// leaderShed reports a follower outcome where the flight leader's
// SUBMISSION was refused — shed by an admission policy or bounced off a
// full queue. That fate belongs to the leader's arrival, not to the
// decode (none ever ran), so followers retry on their own behalf and
// face admission themselves rather than inheriting a drop they were
// never charged for. Each retry either leads a fresh submission (whose
// own shed error it rightfully owns) or joins a newer flight, so the
// retry loop always makes progress.
func leaderShed(resp *Response) bool {
	var shed *ShedError
	return errors.Is(resp.Err, ErrQueueFull) || errors.As(resp.Err, &shed)
}

// startOrJoin is the single-flight gate in front of the queue. The
// first submission of a (prompt, options, seed) becomes the leader: its
// task is enqueued carrying a registered flight. Identical submissions
// arriving while the leader is in flight become followers: they get
// the flight to wait on instead of a task, and no second decode runs.
// Streaming requests and disabled dedup bypass the gate entirely.
func (e *Engine) startOrJoin(ctx context.Context, req Request, ids []int, key cacheKey, wait bool) (*task, *flight, error) {
	if e.cfg.NoDedup || req.OnStep != nil {
		t, err := e.enqueue(ctx, req, ids, wait, key, nil)
		return t, nil, err
	}
	e.flightMu.Lock()
	if f, ok := e.inflight[key]; ok {
		e.flightMu.Unlock()
		e.st.dedupHit(req.Options.StrategyLabel())
		return nil, f, nil
	}
	f := &flight{done: make(chan struct{})}
	e.inflight[key] = f
	e.flightMu.Unlock()
	t, err := e.enqueue(ctx, req, ids, wait, key, f)
	if err != nil {
		// Resolve the flight so followers that joined between the
		// registration and this failure do not hang; they share the
		// submission error (x/sync/singleflight semantics).
		e.resolveFlight(key, f, &Response{Err: err})
		return nil, nil, err
	}
	return t, nil, nil
}

// resolveFlight publishes a leader's outcome to its followers and
// retires the registration. The map delete precedes the broadcast so a
// request arriving after completion starts a fresh decode (or hits the
// LRU) instead of joining a finished flight.
func (e *Engine) resolveFlight(key cacheKey, f *flight, resp *Response) {
	e.flightMu.Lock()
	delete(e.inflight, key)
	e.flightMu.Unlock()
	f.resp = resp
	close(f.done)
}

// waitFlight blocks a follower on its leader's outcome. The response
// is a per-follower copy (the Result pointer is shared and immutable)
// flagged Deduped; a follower whose own context dies first detaches
// with the context error.
func waitFlight(ctx context.Context, f *flight) *Response {
	sp := trace.FromContext(ctx).Start(trace.SpanFromContext(ctx), trace.KindSingleFlight, "")
	select {
	case <-f.done:
		r := *f.resp
		r.Deduped = true
		sp.SetAttr("outcome", "shared")
		sp.End()
		return &r
	case <-ctx.Done():
		sp.SetAttr("outcome", "canceled")
		sp.End()
		return &Response{Err: ctx.Err()}
	}
}

// cacheLookup serves a request from the LRU if possible, accounting a
// hit or miss. Streaming requests never touch the cache.
func (e *Engine) cacheLookup(req Request, key cacheKey) *Response {
	if e.cache == nil || req.OnStep != nil {
		return nil
	}
	if res, ok := e.cache.get(key); ok {
		e.st.cacheHit(req.Options.StrategyLabel())
		return &Response{Result: res, Cached: true, Strategy: req.Options.StrategyLabel()}
	}
	e.st.count(&e.st.m.CacheMisses)
	return nil
}

// enqueue places a task on the bounded queue. The read lock spans the
// send so Close's write lock cannot proceed while a submission is in
// flight — after Close acquires it, the queue's contents are final and
// can be drained exactly once.
func (e *Engine) enqueue(ctx context.Context, req Request, ids []int, wait bool, key cacheKey, fl *flight) (*task, error) {
	t := &task{req: req, promptIDs: ids, ctx: ctx, done: make(chan *Response, 1), key: key, fl: fl}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	tr, parent := trace.FromContext(ctx), trace.SpanFromContext(ctx)
	// Admission control sits in front of the queue: a shed request
	// never holds a slot, and because the single-flight registration
	// already happened, a shed leader publishes its drop to followers
	// (who then retry for themselves — see leaderShed).
	if e.cfg.Admit != nil {
		adm := tr.Start(parent, trace.KindAdmission, "")
		if err := e.cfg.Admit(ctx, req); err != nil {
			var shed *ShedError
			if errors.As(err, &shed) {
				adm.SetAttr("outcome", "shed")
				adm.SetAttr("policy", shed.Policy)
			} else {
				adm.SetAttr("outcome", "rejected")
			}
			adm.End()
			e.st.count(&e.st.m.Shed)
			return nil, err
		}
		adm.End()
	}
	t.qspan = tr.Start(parent, trace.KindQueue, "")
	t.enqueued = time.Now()
	if wait {
		select {
		case e.queue <- t:
			return t, nil
		case <-ctx.Done():
			t.qspan.SetAttr("outcome", "canceled")
			t.qspan.End()
			return nil, ctx.Err()
		}
	}
	select {
	case e.queue <- t:
		return t, nil
	default:
		t.qspan.SetAttr("outcome", "queue_full")
		t.qspan.End()
		e.st.count(&e.st.m.Rejected)
		return nil, ErrQueueFull
	}
}

// Close stops accepting requests, drains everything already queued
// through the scheduler, and waits for it to exit. Safe to call once.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	e.mu.Unlock()
	// No submission can be mid-send now: enqueue holds the read lock
	// across its send, and closed gates new ones. Signal the scheduler
	// to drain what remains and exit.
	close(e.quit)
	e.wg.Wait()
}

// pickedUp closes the task's queue span at scheduler pickup.
func (t *task) pickedUp() {
	if t.qspan != nil {
		t.qspan.SetAttrInt("wait_us", t.wait.Microseconds())
		t.qspan.End()
		t.qspan = nil
	}
}

// finish delivers a task's response, resolving its single-flight first
// so followers observe the outcome even if the leading caller already
// detached.
func (e *Engine) finish(t *task, resp *Response) {
	if t.fl != nil {
		e.resolveFlight(t.key, t.fl, resp)
	}
	t.done <- resp
}
