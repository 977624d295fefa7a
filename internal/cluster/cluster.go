// Package cluster is the serving fleet above internal/serve: N
// replicas — each its own serve.Engine wrapping its own model instance
// (possibly different backbones, training schemes or default decoding
// strategies) — behind one front door.
//
// The member set is fixed when New builds it: no replica joins, leaves
// or drains while the fleet runs. Three concerns live here and nowhere
// else:
//
//   - Routing: which replica serves a request. Prefix-affinity
//     consistent hashing (rendezvous form) with a least-loaded
//     fallback, so shared-prefix workloads concentrate on one replica
//     where its result LRU and prefix trie can actually hit.
//   - Dispatch: each request gets one attempt, on the routed replica
//     or on an idle sibling that steals it from an affinity hotspot
//     (dispatch.go); nothing is retried on another replica, because a
//     decode is fully determined by (prompt, options, seed) and every
//     replica of a (model, scheme) pair shares one immutable model, so a
//     fault belongs to the request. A full queue answers ErrQueueFull,
//     which the HTTP layer turns into 503 with a Retry-After header.
//   - Aggregation: fleet-level metrics — per-replica engine snapshots
//     plus fleet-wide sums and routing/steal counters — in JSON and
//     Prometheus forms.
//
// A Fleet implements serve.Backend, so cmd/vgend serves it over the
// same HTTP handlers as a single engine. With one replica the fleet
// adds nothing to the decode path: outputs are byte-identical to the
// bare engine's (pinned by TestSingleReplicaByteIdentical).
package cluster

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

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
	// Engine sizes the replica's serve.Engine.
	Engine serve.Config
	// DefaultStrategy, when set, replaces the wire default ("ours") for
	// requests that named neither a mode nor a strategy (see
	// serve.Request.NoExplicitStrategy). It is the only consumer of
	// that flag. Explicit choices always win.
	DefaultStrategy string
}

// Config assembles a Fleet.
type Config struct {
	// Router picks replicas (nil: prefix-affinity, the only policy;
	// tests plug fixed choices in here).
	Router Router
	// Steal enables work stealing: a routed request whose replica is
	// backlogged is offered to a fleet-wide queue that any idle replica
	// may serve, so prefix-affinity hotspots hand overflow to idle
	// siblings instead of queueing behind the hot set.
	Steal bool
}

// Replica is one running fleet member. Its engine, model and scheme
// are fixed when it is built.
type Replica struct {
	name            string
	defaultStrategy string
	modelName       string
	scheme          string

	eng *serve.Engine

	routed   atomic.Uint64 // requests routed here
	inflight atomic.Int64  // routed and not yet answered
	serving  atomic.Int64  // submitted to this replica's engine right now
	stolen   atomic.Uint64 // requests served here that were routed elsewhere
}

// Name returns the replica's identity.
func (r *Replica) Name() string { return r.name }

// Engine exposes the replica's engine (tests read its metrics
// directly).
func (r *Replica) Engine() *serve.Engine { return r.eng }

// load is the replica's current backlog: queued plus routed-but-
// unanswered requests. Routers order replicas by it.
func (r *Replica) load() int {
	return r.Engine().QueueDepth() + int(r.inflight.Load())
}

// Fleet owns the replicas and fronts them with routing and work
// stealing. The member set (replicas, byModel) is written only by New,
// so the hot path reads it without a lock.
type Fleet struct {
	replicas []*Replica
	byModel  map[string][]*Replica

	router Router
	stealq chan *stealJob
	quit   chan struct{}
	wg     sync.WaitGroup

	requests     atomic.Uint64 // fleet submissions, before routing
	unknownModel atomic.Uint64 // requests naming a model no replica serves
	steals       atomic.Uint64 // requests served by a non-routed replica
}

// New builds and starts a fleet: one engine per spec, plus one steal
// loop per replica when cfg.Steal is set.
func New(specs []ReplicaSpec, cfg Config) (*Fleet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: fleet needs at least one replica")
	}
	if cfg.Router == nil {
		cfg.Router = newPrefixAffinity()
	}
	f := &Fleet{
		byModel: map[string][]*Replica{},
		router:  cfg.Router,
		quit:    make(chan struct{}),
	}
	// Validate every spec before starting any engine, so an error
	// leaves nothing running.
	for i, spec := range specs {
		if spec.Model == nil {
			return nil, fmt.Errorf("cluster: replica %d has no model", i)
		}
		if spec.DefaultStrategy != "" {
			if _, err := core.ResolveStrategy(spec.DefaultStrategy, false); err != nil {
				return nil, fmt.Errorf("cluster: replica %d: %w", i, err)
			}
		}
	}
	for i, spec := range specs {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("r%d:%s/%s", i, spec.Model.Config().Name, spec.Model.Scheme().String())
		}
		r := &Replica{
			name:            name,
			modelName:       spec.Model.Config().Name,
			scheme:          spec.Model.Scheme().String(),
			defaultStrategy: spec.DefaultStrategy,
			eng:             serve.NewEngine(spec.Model, spec.Engine),
		}
		f.replicas = append(f.replicas, r)
		for _, key := range serve.ModelKeys(r.modelName) {
			f.byModel[key] = append(f.byModel[key], r)
		}
	}
	if cfg.Steal {
		f.stealq = make(chan *stealJob, stealQueueCap)
		for _, r := range f.replicas {
			f.wg.Add(1)
			go f.stealer(r)
		}
	}
	return f, nil
}

// Replicas returns the fleet members in construction order.
func (f *Fleet) Replicas() []*Replica { return slices.Clone(f.replicas) }

// Close stops the stealers, then drains and stops every replica
// engine.
func (f *Fleet) Close() {
	close(f.quit)
	f.wg.Wait()
	for _, r := range f.replicas {
		r.Engine().Close()
	}
}

// candidates returns the replicas serving the request's model (all of
// them for an empty model), or an ErrUnknownModel-wrapped error.
func (f *Fleet) candidates(modelName string) ([]*Replica, error) {
	cands := f.replicas
	if modelName != "" {
		cands = f.byModel[strings.ToLower(modelName)]
	}
	if len(cands) > 0 {
		return cands, nil
	}
	f.unknownModel.Add(1)
	return nil, fmt.Errorf("%w: %q", serve.ErrUnknownModel, modelName)
}

// route picks the serving replica. The replica's inflight counter is
// incremented HERE, not at submission, so load-aware routers see each
// routed-but-not-yet-submitted request — in particular, items earlier
// in a batch raise the load later items are routed by. Every caller
// must decrement after the engine answers.
func (f *Fleet) route(ctx context.Context, req serve.Request) (*Replica, error) {
	f.requests.Add(1)
	var sp *trace.Span
	if tr := trace.FromContext(ctx); tr != nil {
		sp = tr.Start(trace.SpanFromContext(ctx), trace.KindRouter, routerName)
	}
	cands, err := f.candidates(req.Model)
	if err != nil {
		sp.SetAttr("outcome", "unknown_model")
		sp.End()
		return nil, err
	}
	r := f.router.Pick(affinityKey(req.Prompt), cands)
	r.inflight.Add(1)
	sp.SetAttr("replica", r.name)
	sp.SetAttrInt("candidates", int64(len(cands)))
	sp.End()
	r.routed.Add(1)
	return r, nil
}

// withDefaultStrategy applies the serving replica's default-strategy
// substitution — at send time, not route time, because a stealer may
// serve on a different replica than the routed one.
func withDefaultStrategy(req serve.Request, r *Replica) serve.Request {
	if r.defaultStrategy != "" && req.NoExplicitStrategy {
		req.Options.Strategy = r.defaultStrategy
	}
	return req
}

// tag stamps the serving replica's name on resp. Every engine Response
// belongs to its one caller (a cache hit shares only its Result), so
// the stamp goes on in place.
func tag(resp *serve.Response, r *Replica) *serve.Response {
	if resp != nil {
		resp.Replica = r.name
	}
	return resp
}

// Generate routes one request and blocks for a queue slot if the
// replica is saturated.
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
	return f.serveItem(ctx, req, r, wait)
}

// serveItem serves one routed request and releases the inflight count
// route took for it.
func (f *Fleet) serveItem(ctx context.Context, req serve.Request, r *Replica, wait bool) (*serve.Response, error) {
	defer r.inflight.Add(-1)
	resp, served, err := f.serveRouted(ctx, req, r, wait)
	return tag(resp, served), err
}

// GenerateBatch routes every item first, so items earlier in the batch
// raise the load later ones are routed by, then serves the items
// concurrently, each on the single-request path (stealing included),
// and returns responses index-for-index with per-item failures on
// Response.Err.
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
	routed := make([]*Replica, len(reqs))
	for i, req := range reqs {
		r, err := f.route(ctx, req)
		if err != nil {
			out[i] = &serve.Response{Err: err}
			continue
		}
		routed[i] = r
	}
	// One goroutine per item, as the engine's batch path holds one task
	// per item; the HTTP layer caps a batch's length.
	var wg sync.WaitGroup
	for i, r := range routed {
		if r == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := f.serveItem(ctx, reqs[i], r, wait)
			if err != nil {
				if resp == nil {
					resp = &serve.Response{}
				}
				resp.Err = err
			}
			out[i] = resp
		}()
	}
	wg.Wait()
	return out
}
