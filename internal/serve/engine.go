// Package serve is the concurrency layer between the speculative
// decoder and its consumers: the vgend HTTP daemon, the benchmark
// harness (internal/experiments) and in-process embedders.
//
// An Engine owns a continuous scheduler over one trained model:
// persistent workers advance every in-flight decode one verification
// step at a time through the step-wise core API, requests join the
// running batch the moment a slot frees and leave it the step they
// finish, and a decode keeps its slot from admission to retirement.
// Each decode has its own step boundary — no batch-wide barrier — so
// one slow step idles no other worker, and a decode alone in the ready
// ring is paced so it cannot lap a slower step running beside it. That
// keeps the verifier's batch full — the regime where speculative
// decoding actually pays — so a short request runs beside a long one
// instead of behind it. Around the scheduler sit a bounded FIFO request
// queue with explicit backpressure (shared by the engines of one model
// group, NewGroup, so any member admits what waits behind a busy
// sibling), an LRU cache keyed on the prompt text and canonical
// options (seed included) that short-circuits repeat generations
// before the prompt is tokenized, and a shared prefix cache
// (model.TrieCache, a token-prefix trie) that reuses prompt-derived
// session state across requests — including partial reuse, where a
// prompt sharing only a token prefix with earlier traffic forks the
// cached prefix session and prepares just the suffix. Decoding stays
// deterministic per seed regardless of scheduling: each request carries
// its own RNG seed in core.Options, admission and retirement fall only
// between verification steps (which the step-wise loop makes
// output-invariant by construction), and decodes share nothing but the
// read-only model and the immutable cached sessions.
//
// Requests choose their decoding strategy per call
// (core.Options.Strategy), so one daemon serves NTP, Medusa, Ours and
// PromptLookup traffic side by side with per-strategy metrics; a
// request that names none decodes with its model's own method.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
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

// Config sizes an Engine. Zero values select defaults.
type Config struct {
	// MaxBatch caps resident decodes — the ones holding a batch slot,
	// stepped in turn from the ready ring (default max(8, 2×Workers)).
	// Requests past it queue until a resident decode retires.
	MaxBatch int
	// Workers is the number of persistent worker goroutines, each
	// stepping one decode at a time (default GOMAXPROCS).
	Workers int
	// QueueSize bounds the pending-request queue (default 256). A full
	// queue blocks Generate and rejects TryGenerate.
	QueueSize int
	// CacheSize is the LRU capacity in generations: 0 selects the
	// default (512), negative disables caching (the benchmark harness
	// disables it so every decode pays its simulated cost).
	CacheSize int
	// StepFault, if set, is the fault-injection plane: it is consulted
	// once per verification step of every resident decode, on the
	// worker stepping it. A returned error aborts the decode with that
	// error (a crashed replica), and so does a panic. A hook that
	// blocks wedges the decode and the one worker holding it until it
	// returns (a hung forward pass): the other workers go on stepping
	// the rest of the batch once the wedged step has outrun the
	// scheduler's pacing (10 ms), so with Workers: 1 it stalls the
	// engine.
	// A hook that sleeps models a slow step. Hooks MUST honour ctx and
	// return once it dies, or Close can wedge behind them. Tests use it
	// to fault, panic or wedge a decode mid-flight (serve's debug
	// surface, a fleet member wedged while its group's queue drains
	// through a sibling, and per-request errors); nil in production.
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
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.CacheSize == 0 {
		c.CacheSize = 512
	}
	return c
}

// Request is one generation to perform.
type Request struct {
	// Prompt is the natural-language description (wrapped in the
	// training prompt template by the decoder).
	Prompt string
	// Options forwards to core.Decoder; the zero value decodes
	// greedily with the model's own method and defaults.
	Options core.Options
	// OnStep, if set, streams decoding steps as they complete. The
	// callback runs on a worker goroutine; streaming requests bypass
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
}

// Response is the outcome of one Request.
type Response struct {
	// Result is the generation (possibly partial if Err is a context
	// error). Cached responses share one Result value across callers —
	// treat it as immutable.
	Result *core.Result
	// Cached reports an LRU short-circuit (no decode ran).
	Cached bool
	// Err is the per-request error (context cancellation, ErrClosed).
	Err error
	// Wall is the decode's own step time (zero for cached responses).
	Wall time.Duration
	// QueueWait is how long the request sat in the bounded queue before
	// a scheduler slot picked it up (zero for cache hits). Always
	// recorded — it needs no tracer — so clients can split wall time
	// into queue vs decode.
	QueueWait time.Duration
	// Strategy is the canonical display name of the strategy that
	// decoded this response ("NTP", "Medusa", "Ours", "PromptLookup").
	// For a request that named none it is the serving model's own
	// method, which the submitting request cannot see.
	Strategy string
	// Engine is the engine that answered: the group member that decoded
	// the request, or the engine whose result LRU held it.
	Engine *Engine
	// Replica names the fleet replica that served this response (empty
	// outside fleet mode).
	Replica string
}

// task is one queued request with its completion channel.
type task struct {
	req Request
	// promptIDs is the prompt's canonical tokenization, computed once
	// at submission after a cache miss; the scheduler decodes from it.
	promptIDs []int
	ctx       context.Context
	done      chan *Response // buffered(1): a worker never blocks on delivery
	// via is the engine the request was submitted to: its QueueDepth
	// counts the task until admission, and its LRU stores the result.
	via *Engine
	// enqueued is when the task entered the queue; the scheduler
	// accounts the pickup delay as queue-wait time.
	enqueued time.Time
	// wait is the measured queue wait, recorded at pickup and echoed on
	// the Response; qspan is the queue span when the request is traced.
	wait  time.Duration
	qspan *trace.Span
	// key is the request's canonical cache key, under which retire
	// stores the result.
	key cacheKey
}

// Engine dispatches generation requests through the continuous
// scheduler (sched.go).
type Engine struct {
	m        *model.Model
	cfg      Config
	g        *group
	queued   atomic.Int64     // tasks submitted here, not yet admitted
	cache    *lruCache        // nil when disabled
	sessions *model.TrieCache // at model.DefaultTrieBytes

	sc   sched // the workers' shared state (sched.go)
	quit chan struct{}
	wg   sync.WaitGroup // the workers

	mu     sync.RWMutex // guards closed and the enqueue/Close handoff
	closed bool

	st stats
}

// group is the bounded request queue the engines of one model share.
// Every member admits the queue's head at its own step boundaries, so
// a member idle for any reason takes up work submitted through a busy
// or wedged sibling, and the group's FIFO admission is the
// scheduler's.
type group struct {
	queue   chan *task
	members []*Engine
}

// NewEngine starts the scheduler's Workers goroutines over m: a group
// of one. The model must be fully trained before the first request:
// workers read it concurrently and model training is not synchronized
// with reads.
func NewEngine(m *model.Model, cfg Config) *Engine {
	return NewGroup(m, cfg)[0]
}

// NewGroup starts one engine per config over m, all sharing one
// request queue that holds the sum of their QueueSize. A request
// submitted to any member is decoded by whichever member admits it
// (Response.Engine); each engine keeps its own result LRU, prefix trie
// and metrics, and Close on each as usual.
func NewGroup(m *model.Model, cfgs ...Config) []*Engine {
	g := &group{}
	size := 0
	for _, cfg := range cfgs {
		cfg = cfg.withDefaults()
		e := &Engine{
			m:        m,
			cfg:      cfg,
			g:        g,
			sessions: model.NewTrieCache(0),
			quit:     make(chan struct{}),
		}
		if cfg.CacheSize > 0 {
			e.cache = newLRUCache(cfg.CacheSize)
		}
		e.sc.ready.buf = make([]*schedTask, cfg.MaxBatch)
		e.sc.wake = make(chan struct{}, 1)
		e.sc.stepping = make([]inflight, cfg.Workers)
		e.st.init()
		g.members = append(g.members, e)
		size += cfg.QueueSize
	}
	g.queue = make(chan *task, size)
	for _, e := range g.members {
		e.wg.Add(e.cfg.Workers)
		for w := range e.cfg.Workers {
			go e.worker(w)
		}
	}
	return g.members
}

// Model exposes the engine's model (the HTTP layer reports its name).
func (e *Engine) Model() *model.Model { return e.m }

// Workers reports the worker goroutine count.
func (e *Engine) Workers() int { return e.cfg.Workers }

// QueueDepth reports the number of requests submitted to this engine
// that wait in its group's queue (not yet admitted by any member); the
// members' depths sum to the queue's length.
func (e *Engine) QueueDepth() int { return max(0, int(e.queued.Load())) }

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

func (e *Engine) generateBatch(ctx context.Context, reqs []Request, block bool) []*Response {
	if ctx == nil {
		ctx = context.Background()
	}
	tasks := make([]*task, len(reqs))
	out := make([]*Response, len(reqs))
	for i, req := range reqs {
		t, resp, err := e.start(ctx, req, block)
		switch {
		case err != nil:
			out[i] = &Response{Err: err}
		case resp != nil:
			out[i] = resp
		default:
			tasks[i] = t
		}
	}
	for i, t := range tasks {
		if t == nil {
			continue
		}
		resp, err := e.wait(ctx, t)
		if resp == nil {
			resp = &Response{Err: err}
		}
		out[i] = resp
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

// ModelKeys lists the spellings a request's model field may use to
// name a backbone whose config name is name: the config name,
// case-folded, plus the daemon-flag alias without the "-sim" suffix
// ("CodeT5p-sim" answers to "codet5p-sim" and "codet5p"). A request's
// model matches when its case-folded spelling is one of them — the one
// rule an Engine checks and a fleet routes by.
func ModelKeys(name string) []string {
	lower := strings.ToLower(name)
	keys := []string{lower}
	if trimmed := strings.TrimSuffix(lower, "-sim"); trimmed != lower {
		keys = append(keys, trimmed)
	}
	return keys
}

// modelMismatch reports a request naming a backbone other than this
// engine's (see ModelKeys). A single engine must refuse such requests
// rather than silently answer with the wrong model — the same contract
// a fleet enforces by routing.
func (e *Engine) modelMismatch(req Request) error {
	if req.Model == "" || slices.Contains(ModelKeys(e.m.Config().Name), strings.ToLower(req.Model)) {
		return nil
	}
	return fmt.Errorf("%w: %q (this engine serves %s)", ErrUnknownModel, req.Model, e.m.Config().Name)
}

func (e *Engine) submit(ctx context.Context, req Request, block bool) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t, resp, err := e.start(ctx, req, block)
	if resp != nil || err != nil {
		return resp, err
	}
	return e.wait(ctx, t)
}

// start runs a submission up to the wait: the model check, accounting,
// the result LRU (a hit comes back as resp), then tokenization and the
// enqueue.
func (e *Engine) start(ctx context.Context, req Request, block bool) (*task, *Response, error) {
	if err := e.modelMismatch(req); err != nil {
		return nil, nil, err
	}
	// Canonical options make equivalently-spelled requests share cache
	// entries (see core.Options.Canonical); a request naming no strategy
	// shares the entry of the model's own method.
	req.Options = req.Options.ForModel(e.m).Canonical()
	e.st.request(req.Options.StrategyLabel())
	key := cacheKey{prompt: req.Prompt, opts: req.Options}
	if resp := e.cacheLookup(req, key); resp != nil {
		return nil, resp, nil
	}
	ids := model.CanonicalPromptIDs(e.m.Tokenizer(), req.Prompt)
	t, err := e.enqueue(ctx, req, ids, key, block)
	return t, nil, err
}

// wait blocks on a submitted task's outcome.
func (e *Engine) wait(ctx context.Context, t *task) (*Response, error) {
	if t.req.OnStep != nil {
		// No early return for streaming requests: the caller's OnStep
		// state must not outlive this call while a worker can still
		// invoke it (see Request.OnStep).
		resp := <-t.done
		return resp, resp.Err
	}
	select {
	case resp := <-t.done:
		return resp, resp.Err
	case <-ctx.Done():
		// The task stays queued; a worker will observe the dead
		// context and discard it into the buffered done channel.
		return nil, ctx.Err()
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
		return &Response{Result: res, Cached: true, Strategy: req.Options.StrategyLabel(), Engine: e}
	}
	e.st.count(&e.st.m.CacheMisses)
	return nil
}

// enqueue places a task on the group's bounded queue. The read lock
// spans the send so Close's write lock cannot proceed while a
// submission is in flight — after Close acquires it, nothing more can
// enter the queue through this engine, and its workers drain the queue
// before they exit, so every task is admitted exactly once.
func (e *Engine) enqueue(ctx context.Context, req Request, ids []int, key cacheKey, block bool) (*task, error) {
	t := &task{req: req, promptIDs: ids, ctx: ctx, done: make(chan *Response, 1), key: key, via: e}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	t.qspan = trace.FromContext(ctx).Start(trace.SpanFromContext(ctx), trace.KindQueue, "")
	t.enqueued = time.Now()
	if block {
		select {
		case e.g.queue <- t:
		case <-ctx.Done():
			t.qspan.SetAttr("outcome", "canceled")
			t.qspan.End()
			return nil, ctx.Err()
		}
	} else {
		select {
		case e.g.queue <- t:
		default:
			t.qspan.SetAttr("outcome", "queue_full")
			t.qspan.End()
			e.st.count(&e.st.m.Rejected)
			return nil, ErrQueueFull
		}
	}
	e.queued.Add(1)
	e.g.wake(e)
	return t, nil
}

// Close stops accepting requests, drains everything already queued
// (in the whole group) through the workers, and joins them. Safe to
// call more than once.
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
	// across its send, and closed gates new ones. Signal the workers
	// to drain what remains and exit.
	close(e.quit)
	e.wg.Wait()
}

// pickedUp closes the task's queue span at admission.
func (t *task) pickedUp() {
	if t.qspan != nil {
		t.qspan.SetAttrInt("wait_us", t.wait.Microseconds())
		t.qspan.End()
		t.qspan = nil
	}
}
