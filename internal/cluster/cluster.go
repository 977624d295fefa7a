// Package cluster is the serving fleet above internal/serve: N
// replicas — each its own serve.Engine wrapping its own model instance
// (possibly different backbones, training schemes or default decoding
// strategies) — behind one front door.
//
// Four concerns live here and nowhere else:
//
//   - Routing: which replica serves a request. The default policy is
//     prefix-affinity consistent hashing (rendezvous form) with a
//     least-loaded fallback, so shared-prefix workloads concentrate on
//     one replica where its result LRU, prefix trie and
//     single-flight table can actually hit; round-robin, random and
//     pure least-loaded routers exist for comparison and as the
//     fleet-bench control group.
//   - Admission: whether a routed request may enter its replica's
//     queue. Pluggable ShedPolicy chains (deadline, priority classes,
//     per-client token budgets) run inside the engine's Admit hook —
//     after the single-flight registration — so a shed leader
//     publishes its drop and followers retry on their own behalf. A
//     shed request always gets an explicit error carrying a
//     Retry-After hint; nothing is dropped silently.
//   - Resilience and elasticity: per-replica circuit breakers route
//     traffic away from faulting members (dispatch.go), hedged retries
//     cover the latency tail of a wedged replica, work stealing
//     rebalances affinity hotspots, replicas drain gracefully and swap
//     models without a restart (lifecycle.go), and an autoscaler grows
//     and shrinks the fleet on queue-wait and shed pressure
//     (autoscale.go).
//   - Aggregation: fleet-level metrics — per-replica engine snapshots
//     plus fleet-wide sums, shed/routing/breaker/scale counters and a
//     decode-time EWMA — in JSON and Prometheus forms.
//
// A Fleet implements serve.Backend, so cmd/vgend serves it over the
// same HTTP handlers as a single engine. With one replica, no policies
// and hedging off, the fleet adds nothing to the decode path: outputs
// are byte-identical to the bare engine's (pinned by
// TestSingleReplicaByteIdentical).
package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/trace"
)

// ReplicaSpec describes one fleet member before construction.
type ReplicaSpec struct {
	// Name identifies the replica in routing, metrics and responses
	// (defaults to "r<i>:<model>/<scheme>").
	Name string
	// Model is the trained backbone this replica decodes with.
	// Replicas may share one *model.Model (it is read-only after
	// training); each still gets its own engine and caches.
	Model *model.Model
	// Engine sizes the replica's serve.Engine. The Admit hook is owned
	// by the fleet and must be nil here.
	Engine serve.Config
	// DefaultStrategy, when set, replaces the fleet-wide default for
	// requests that named neither a mode nor a strategy (see
	// serve.Request.NoExplicitStrategy). Explicit choices always win.
	DefaultStrategy string
}

// Config assembles a Fleet.
type Config struct {
	// Router picks replicas (default: prefix-affinity).
	Router Router
	// Policies is the admission chain, applied in order; empty admits
	// everything (the engines' queue-full backstop still rejects).
	Policies []ShedPolicy
	// HedgeAfter, when positive, races a second replica for any request
	// the first hasn't answered within this duration — latency-tail
	// cover for a slow or wedged member. A hedge winning by timeout is
	// the wedge signal that feeds the loser's circuit breaker. Zero
	// disables hedging (and keeps the single-replica path byte-
	// identical to the bare engine).
	HedgeAfter time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// replica's circuit open (default 3); BreakerCooldown is the open
	// dwell before a half-open probe (default 1s). Breakers are always
	// on — with no faults they never trip.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Steal enables work stealing: a routed request whose replica is
	// backlogged is offered to a fleet-wide queue that any idle replica
	// may serve, so prefix-affinity hotspots shed overflow to idle
	// siblings instead of queueing behind the hot set.
	Steal bool
	// Autoscale grows and shrinks the fleet at runtime (autoscale.go).
	Autoscale AutoscaleConfig
}

// Replica lifecycle states (Replica.state).
const (
	stateActive int32 = iota
	stateDraining
)

// Replica is one running fleet member.
type Replica struct {
	name            string
	defaultStrategy string
	engCfg          serve.Config // rebuild recipe for model swaps

	// mu guards the swap-mutable identity fields.
	mu        sync.Mutex
	modelName string
	scheme    string

	eng     atomic.Pointer[serve.Engine]
	state   atomic.Int32 // stateActive / stateDraining
	breaker *breaker
	scaled  bool // added by the autoscaler (only these scale back down)

	routed   atomic.Uint64 // requests routed here
	inflight atomic.Int64  // routed and not yet answered
	serving  atomic.Int64  // submitted to this replica's engine right now
	stolen   atomic.Uint64 // requests served here that were routed elsewhere
}

// Name returns the replica's identity.
func (r *Replica) Name() string { return r.name }

// Engine exposes the replica's engine (tests and the fleet bench read
// its metrics directly).
func (r *Replica) Engine() *serve.Engine { return r.eng.Load() }

// ModelName reports the replica's current model (swap-safe).
func (r *Replica) ModelName() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.modelName
}

func (r *Replica) schemeName() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.scheme
}

// Draining reports whether the replica has stopped admitting new work.
func (r *Replica) Draining() bool { return r.state.Load() == stateDraining }

// load is the replica's current backlog: queued plus routed-but-
// unanswered requests. Routers order replicas by it.
func (r *Replica) load() int {
	return r.Engine().QueueDepth() + int(r.inflight.Load())
}

// serveable reports whether the router may send new work here: active
// and with a circuit that would admit a request.
func (r *Replica) serveable() bool {
	return r.state.Load() == stateActive && r.breaker.ready()
}

// Fleet owns the replicas and fronts them with routing, admission and
// the resilience machinery.
type Fleet struct {
	// mu guards the member set (replicas, byModel, nextID) against
	// scaling and swaps; the hot path takes it only to snapshot.
	mu       sync.RWMutex
	replicas []*Replica
	byModel  map[string][]*Replica
	nextID   int

	router   Router
	policies []ShedPolicy
	cfg      Config
	template ReplicaSpec // clone source for autoscaled replicas

	stealq chan *stealJob
	quit   chan struct{}
	wg     sync.WaitGroup
	auto   *autoscaler

	st      fleetStats
	elastic elasticStats
}

// fleetStats accumulates fleet-level counters under one mutex.
type fleetStats struct {
	mu             sync.Mutex
	requests       uint64
	shedByPolicy   map[string]uint64
	shedByPriority map[string]uint64
	unknownModel   uint64
	// meanDecodeMS is an EWMA of completed decode wall times; admission
	// deadline math runs on it.
	meanDecodeMS float64
}

// elasticStats counts the resilience machinery's actions (lock-free:
// every field is written from hot paths).
type elasticStats struct {
	hedges     atomic.Uint64 // hedge attempts launched
	hedgeWins  atomic.Uint64 // hedges that answered before the primary
	failovers  atomic.Uint64 // retries on a sibling after a replica fault
	steals     atomic.Uint64 // requests served by a non-routed replica
	drains     atomic.Uint64 // drains started
	swaps      atomic.Uint64 // completed model swaps
	scaleUps   atomic.Uint64 // autoscaler replica additions
	scaleDowns atomic.Uint64 // autoscaler replica removals
}

func (f *Fleet) shedTotal() uint64 {
	f.st.mu.Lock()
	defer f.st.mu.Unlock()
	var n uint64
	for _, v := range f.st.shedByPolicy {
		n += v
	}
	return n
}

// New builds and starts a fleet. Each spec's engine is created here so
// the fleet can install its admission hook; specs must not set one.
func New(specs []ReplicaSpec, cfg Config) (*Fleet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: fleet needs at least one replica")
	}
	if cfg.Router == nil {
		cfg.Router = newPrefixAffinity()
	}
	f := &Fleet{
		byModel:  map[string][]*Replica{},
		router:   cfg.Router,
		policies: cfg.Policies,
		cfg:      cfg,
		template: specs[0],
		quit:     make(chan struct{}),
	}
	f.st.shedByPolicy = map[string]uint64{}
	f.st.shedByPriority = map[string]uint64{}
	for i, spec := range specs {
		if spec.Model == nil {
			return nil, fmt.Errorf("cluster: replica %d has no model", i)
		}
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("r%d:%s/%s", i, spec.Model.Config().Name, spec.Model.Scheme().String())
		}
		if _, err := f.buildReplica(spec, name, false); err != nil {
			return nil, fmt.Errorf("cluster: replica %d: %w", i, err)
		}
	}
	f.nextID = len(specs)
	if cfg.Steal {
		f.stealq = make(chan *stealJob, stealQueueCap)
		f.mu.RLock()
		for _, r := range f.replicas {
			f.startStealer(r)
		}
		f.mu.RUnlock()
	}
	if cfg.Autoscale.Enabled {
		a, err := newAutoscaler(f, cfg.Autoscale)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.auto = a
	}
	return f, nil
}

// buildReplica constructs, registers and starts one member. The name
// must be unique; callers outside New must not hold f.mu.
func (f *Fleet) buildReplica(spec ReplicaSpec, name string, scaled bool) (*Replica, error) {
	if spec.Model == nil {
		return nil, fmt.Errorf("no model")
	}
	if spec.Engine.Admit != nil {
		return nil, fmt.Errorf("sets Engine.Admit (owned by the fleet)")
	}
	if spec.DefaultStrategy != "" {
		if _, err := core.ResolveStrategy(spec.DefaultStrategy, false); err != nil {
			return nil, err
		}
	}
	r := &Replica{
		name:            name,
		modelName:       spec.Model.Config().Name,
		scheme:          spec.Model.Scheme().String(),
		defaultStrategy: spec.DefaultStrategy,
		engCfg:          spec.Engine,
		scaled:          scaled,
		breaker:         newBreaker(f.cfg.BreakerThreshold, f.cfg.BreakerCooldown, nil),
	}
	engCfg := spec.Engine
	if len(f.policies) > 0 {
		engCfg.Admit = f.admitFunc(r)
	}
	r.eng.Store(serve.NewEngine(spec.Model, engCfg))
	f.mu.Lock()
	f.replicas = append(f.replicas, r)
	for _, key := range modelKeys(r.modelName) {
		f.byModel[key] = append(f.byModel[key], r)
	}
	f.mu.Unlock()
	return r, nil
}

// modelKeys lists the spellings a replica's model answers to: the
// config name, case-folded, plus the daemon-flag alias without the
// "-sim" suffix ("CodeT5p-sim" serves both "codet5p-sim" and
// "codet5p").
func modelKeys(name string) []string {
	lower := strings.ToLower(name)
	keys := []string{lower}
	if trimmed := strings.TrimSuffix(lower, "-sim"); trimmed != lower {
		keys = append(keys, trimmed)
	}
	return keys
}

// Replicas snapshots the fleet members in construction order.
func (f *Fleet) Replicas() []*Replica {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*Replica, len(f.replicas))
	copy(out, f.replicas)
	return out
}

// Router reports the active routing policy's name.
func (f *Fleet) Router() string { return f.router.Name() }

// Close stops the background machinery (stealers, autoscaler, pending
// scale-downs), then drains and stops every replica engine.
func (f *Fleet) Close() {
	close(f.quit)
	f.wg.Wait()
	for _, r := range f.Replicas() {
		r.Engine().Close()
	}
}

// admitFunc binds the policy chain to one replica: the engine calls it
// for every submission that would consume a queue slot.
func (f *Fleet) admitFunc(r *Replica) func(ctx context.Context, req serve.Request) error {
	return func(ctx context.Context, req serve.Request) error {
		load := f.loadAt(r)
		for _, p := range f.policies {
			if err := p.Admit(ctx, req, load); err != nil {
				f.st.mu.Lock()
				f.st.shedByPolicy[p.Name()]++
				f.st.shedByPriority[req.Priority.String()]++
				f.st.mu.Unlock()
				return err
			}
		}
		return nil
	}
}

// loadAt snapshots the admission Load for one replica.
func (f *Fleet) loadAt(r *Replica) Load {
	eng := r.Engine()
	l := Load{
		QueueDepth: eng.QueueDepth(),
		QueueCap:   eng.QueueCap(),
		Workers:    eng.Workers(),
		Inflight:   int(r.inflight.Load()),
	}
	for _, o := range f.Replicas() {
		l.FleetQueueDepth += o.Engine().QueueDepth()
		l.FleetInflight += int(o.inflight.Load())
	}
	f.st.mu.Lock()
	l.MeanDecodeMS = f.st.meanDecodeMS
	f.st.mu.Unlock()
	return l
}

// candidates returns the replicas serving the request's model (all of
// them for an empty model), or an ErrUnknownModel-wrapped error.
func (f *Fleet) candidates(modelName string) ([]*Replica, error) {
	f.mu.RLock()
	var reps []*Replica
	if modelName == "" {
		reps = f.replicas
	} else {
		reps = f.byModel[strings.ToLower(modelName)]
	}
	cands := make([]*Replica, len(reps))
	copy(cands, reps)
	f.mu.RUnlock()
	if len(cands) > 0 {
		return cands, nil
	}
	f.st.mu.Lock()
	f.st.unknownModel++
	f.st.mu.Unlock()
	return nil, fmt.Errorf("%w: %q", serve.ErrUnknownModel, modelName)
}

// serveableOf filters candidates to members the router may use: active
// and breaker-ready. When none qualify the full set comes back —
// availability beats purity; a fleet of open breakers still serves.
func serveableOf(cands []*Replica) []*Replica {
	ok := make([]*Replica, 0, len(cands))
	for _, r := range cands {
		if r.serveable() {
			ok = append(ok, r)
		}
	}
	if len(ok) == 0 {
		return cands
	}
	return ok
}

// route picks the serving replica. The replica's inflight counter is
// incremented HERE, not at submission, so load-aware routers see each
// routed-but-not-yet-submitted request — in particular, items earlier
// in a batch raise the load later items are routed by. Every caller
// must decrement after the engine answers.
func (f *Fleet) route(ctx context.Context, req serve.Request) (*Replica, error) {
	f.st.mu.Lock()
	f.st.requests++
	f.st.mu.Unlock()
	var sp *trace.Span
	if tr := trace.FromContext(ctx); tr != nil {
		sp = tr.Start(trace.SpanFromContext(ctx), trace.KindRouter, f.router.Name())
	}
	cands, err := f.candidates(req.Model)
	if err != nil {
		sp.SetAttr("outcome", "unknown_model")
		sp.End()
		return nil, err
	}
	r := f.router.Pick(affinityKey(req.Prompt), serveableOf(cands))
	sp.SetAttr("replica", r.name)
	sp.SetAttrInt("candidates", int64(len(cands)))
	sp.End()
	r.routed.Add(1)
	r.inflight.Add(1)
	return r, nil
}

// withDefaultStrategy applies the serving replica's default-strategy
// substitution — at send time, not route time, because hedges and
// failovers may serve on a different replica than the routed one.
func withDefaultStrategy(req serve.Request, r *Replica) serve.Request {
	if r.defaultStrategy != "" && req.NoExplicitStrategy {
		req.Options.Strategy = r.defaultStrategy
	}
	return req
}

// observe folds one outcome into the fleet's decode-time EWMA.
func (f *Fleet) observe(resp *serve.Response) {
	if resp == nil || resp.Err != nil || resp.Cached || resp.Deduped || resp.Wall <= 0 {
		return
	}
	wallMS := float64(resp.Wall) / float64(time.Millisecond)
	f.st.mu.Lock()
	if f.st.meanDecodeMS == 0 {
		f.st.meanDecodeMS = wallMS
	} else {
		f.st.meanDecodeMS = 0.8*f.st.meanDecodeMS + 0.2*wallMS
	}
	f.st.mu.Unlock()
}

// tag returns a per-caller copy of resp carrying the serving replica's
// name. A copy, not a mutation: the engine may still share the
// original with single-flight followers.
func tag(resp *serve.Response, r *Replica) *serve.Response {
	if resp == nil {
		return nil
	}
	tagged := *resp
	tagged.Replica = r.name
	return &tagged
}

// Generate routes one request and blocks for a queue slot if the
// replica is saturated (admission policies still apply).
func (f *Fleet) Generate(ctx context.Context, req serve.Request) (*serve.Response, error) {
	return f.generate(ctx, req, true)
}

// TryGenerate implements serve.Backend: Generate with fail-fast
// backpressure.
func (f *Fleet) TryGenerate(ctx context.Context, req serve.Request) (*serve.Response, error) {
	return f.generate(ctx, req, false)
}

func (f *Fleet) generate(ctx context.Context, req serve.Request, wait bool) (*serve.Response, error) {
	r, err := f.route(ctx, req)
	if err != nil {
		return nil, err
	}
	defer r.inflight.Add(-1)
	resp, served, err := f.serveRouted(ctx, req, r, wait)
	f.observe(resp)
	return tag(resp, served), err
}

// GenerateBatch routes every item, dispatches the per-replica groups
// concurrently (each through the engine's own batch path, so items
// within a group are in flight together), and reassembles responses
// index-for-index. Batches are not hedged — they are the bench/bulk
// path; per-request hedging covers the interactive tail.
func (f *Fleet) GenerateBatch(ctx context.Context, reqs []serve.Request) []*serve.Response {
	return f.generateBatch(ctx, reqs, true)
}

// TryGenerateBatch implements serve.Backend: GenerateBatch with
// fail-fast backpressure per item.
func (f *Fleet) TryGenerateBatch(ctx context.Context, reqs []serve.Request) []*serve.Response {
	return f.generateBatch(ctx, reqs, false)
}

func (f *Fleet) generateBatch(ctx context.Context, reqs []serve.Request, wait bool) []*serve.Response {
	out := make([]*serve.Response, len(reqs))
	groups := map[*Replica][]int{}
	for i, req := range reqs {
		r, err := f.route(ctx, req)
		if err != nil {
			out[i] = &serve.Response{Err: err}
			continue
		}
		groups[r] = append(groups[r], i)
	}
	var wg sync.WaitGroup
	for r, idxs := range groups {
		wg.Add(1)
		go func(r *Replica, idxs []int) {
			defer wg.Done()
			// route already counted these items into inflight.
			defer r.inflight.Add(int64(-len(idxs)))
			sub := make([]serve.Request, len(idxs))
			for j, i := range idxs {
				sub[j] = withDefaultStrategy(reqs[i], r)
			}
			eng := r.Engine()
			var resps []*serve.Response
			if wait {
				resps = eng.GenerateBatch(ctx, sub)
			} else {
				resps = eng.TryGenerateBatch(ctx, sub)
			}
			for j, i := range idxs {
				f.recordBreaker(r, resps[j], nil)
				f.observe(resps[j])
				out[i] = tag(resps[j], r)
			}
		}(r, idxs)
	}
	wg.Wait()
	return out
}
