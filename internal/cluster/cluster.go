// Package cluster is the serving fleet above internal/serve: N
// replicas — each its own serve.Engine wrapping its own model instance
// (possibly different backbones or training schemes) — behind one
// front door. A request that names no strategy decodes with the
// serving replica's model's own method.
//
// The member set is fixed when New builds it: no replica joins, leaves
// or drains while the fleet runs. Three concerns live here and nowhere
// else:
//
//   - Routing: which replica serves a request. Prefix-affinity
//     consistent hashing (rendezvous form), so shared-prefix workloads
//     concentrate on one replica where its result LRU and prefix trie
//     can actually hit.
//   - Dispatch: each request gets one attempt, submitted to the routed
//     replica (dispatch.go). The replicas sharing one *model.Model form
//     a group with one shared request queue (serve.NewGroup): any
//     member with a free batch slot admits the queue's head at its own
//     step boundary, so an idle sibling steals work queued behind a
//     busy or wedged replica. That is the fleet's one way to rebalance,
//     it runs no goroutine of its own, and it never leaves the group,
//     so a steal decodes exactly the bytes routing would have. Nothing
//     is retried on another replica, because a decode is fully
//     determined by (prompt, options, seed) and every replica of a
//     group shares one immutable model, so a fault belongs to the
//     request. A full queue answers ErrQueueFull, which the HTTP layer
//     turns into 503 with a Retry-After header.
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
	"strings"
	"sync"
	"sync/atomic"

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
	// training); each still gets its own engine and caches, and the
	// replicas sharing one form a group with one request queue.
	Model *model.Model
	// Engine sizes the replica's serve.Engine.
	Engine serve.Config
}

// Config assembles a Fleet.
type Config struct {
	// Router picks replicas (nil: prefix-affinity, the only policy;
	// tests plug fixed choices in here).
	Router Router
}

// Replica is one running fleet member. Its engine, model and scheme
// are fixed when it is built.
type Replica struct {
	name      string
	modelName string
	scheme    string

	eng *serve.Engine

	routed atomic.Uint64 // requests routed here
	stolen atomic.Uint64 // requests decoded here that were routed elsewhere
}

// Engine exposes the replica's engine (tests read its metrics
// directly).
func (r *Replica) Engine() *serve.Engine { return r.eng }

// Fleet owns the replicas and fronts them with routing. The member set
// (replicas, byModel, byEngine) is written only by New, so the hot
// path reads it without a lock.
type Fleet struct {
	replicas []*Replica
	byModel  map[string][]*Replica
	byEngine map[*serve.Engine]*Replica

	router Router

	requests     atomic.Uint64 // fleet submissions, before routing
	unknownModel atomic.Uint64 // requests naming a model no replica serves
	steals       atomic.Uint64 // requests served by a non-routed replica
}

// New builds and starts a fleet: one engine per spec, the engines of
// the specs sharing a *model.Model built as one group.
func New(specs []ReplicaSpec, cfg Config) (*Fleet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: fleet needs at least one replica")
	}
	if cfg.Router == nil {
		cfg.Router = prefixAffinity{}
	}
	f := &Fleet{
		byModel:  map[string][]*Replica{},
		byEngine: map[*serve.Engine]*Replica{},
		router:   cfg.Router,
	}
	// Validate every spec before starting any engine, so an error
	// leaves nothing running.
	for i, spec := range specs {
		if spec.Model == nil {
			return nil, fmt.Errorf("cluster: replica %d has no model", i)
		}
	}
	groups := map[*model.Model][]int{} // spec indices per model
	for i, spec := range specs {
		groups[spec.Model] = append(groups[spec.Model], i)
	}
	engines := make([]*serve.Engine, len(specs))
	for m, idx := range groups {
		cfgs := make([]serve.Config, len(idx))
		for k, i := range idx {
			cfgs[k] = specs[i].Engine
		}
		for k, e := range serve.NewGroup(m, cfgs...) {
			engines[idx[k]] = e
		}
	}
	for i, spec := range specs {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("r%d:%s/%s", i, spec.Model.Config().Name, spec.Model.Scheme().String())
		}
		r := &Replica{
			name:      name,
			modelName: spec.Model.Config().Name,
			scheme:    spec.Model.Scheme().String(),
			eng:       engines[i],
		}
		f.replicas = append(f.replicas, r)
		f.byEngine[r.eng] = r
		for _, key := range serve.ModelKeys(r.modelName) {
			f.byModel[key] = append(f.byModel[key], r)
		}
	}
	return f, nil
}

// Close drains and stops every replica engine.
func (f *Fleet) Close() {
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

// route picks the replica a request is submitted to.
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
	sp.SetAttr("replica", r.name)
	sp.SetAttrInt("candidates", int64(len(cands)))
	sp.End()
	r.routed.Add(1)
	return r, nil
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
	return f.send(ctx, req, r, wait)
}

// TryGenerateBatch implements serve.Backend: it serves the items
// concurrently, each on the fail-fast single-request path, and returns
// responses index-for-index with per-item failures on Response.Err.
func (f *Fleet) TryGenerateBatch(ctx context.Context, reqs []serve.Request) []*serve.Response {
	return f.generateBatch(ctx, reqs, false)
}

func (f *Fleet) generateBatch(ctx context.Context, reqs []serve.Request, wait bool) []*serve.Response {
	out := make([]*serve.Response, len(reqs))
	// One goroutine per item, as the engine's batch path holds one task
	// per item; the HTTP layer caps a batch's length.
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := f.generate(ctx, req, wait)
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
