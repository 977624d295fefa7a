// Command vgend is the Verilog generation daemon: it trains the
// simulated speculative-decoding model(s) once at startup, then serves
// generations over HTTP — through a single internal/serve engine, or
// in fleet mode through an internal/cluster fleet of engine replicas
// with prefix-affinity routing.
//
// Endpoints:
//
//	POST /v1/generate  — {"prompt": "..."} or {"prompts": [...]};
//	                     {"strategy": "ntp"|"medusa"|"ours"|
//	                     "prompt-lookup"} routes the request to any
//	                     registered decoding strategy ("mode" is an
//	                     alias of the field; default "ours");
//	                     {"model": "codellama"} targets one backbone in
//	                     fleet mode; {"stream": true} switches to
//	                     NDJSON streaming (single prompt).
//	GET  /healthz      — liveness plus model/pool (or fleet) identity.
//	GET  /metrics      — engine counters (fleet mode adds per-replica
//	                     detail, routing and steal counters). JSON by
//	                     default; ?format=prometheus (or a Prometheus
//	                     Accept header) selects the text exposition.
//	                     Tracing mode adds vgend_phase_seconds_total.
//	GET  /debug/requests — flight recorder: the last traces plus the
//	                     always-retained slowest ones; ?id= returns one
//	                     request's full span tree (-trace mode).
//	GET  /debug/trace  — one recorded trace as a raw JSON snapshot.
//	GET  /debug/pprof/ — net/http/pprof profiles (behind -pprof).
//
// Every response carries an X-Request-ID header (echoing the caller's,
// or minted); in tracing mode that ID keys the request's trace in the
// flight recorder, so a slow or failed request is debuggable from
// /debug/requests?id=<X-Request-ID> alone.
//
// Fleet mode starts when -replicas > 1, -models lists more than one
// spec (or one with a default strategy), or -steal is set; with none
// of those the daemon runs the exact single-engine path of previous
// releases. The replicas are built at startup and never change.
// Replica specs are model[:scheme[:default-strategy]], e.g.
//
//	vgend -replicas 4 -steal
//	vgend -models codellama:ours,codet5p:ntp:prompt-lookup
//
// Requests are routed per prefix-affinity consistent hashing (with a
// least-loaded fallback), so shared-prefix traffic concentrates where
// its caches are warm; a request that finds its replica's queue full
// gets an explicit 503 with a Retry-After header.
//
// Each request gets exactly one attempt, on the replica the router (or
// a stealer) picked: replicas sharing a (model, scheme) pair decode with
// the same immutable model, so a request that fails would fail the same
// way on a sibling, and its error comes back as itself. -steal lets
// idle replicas pull queued overflow from affinity hotspots, observable
// via /metrics (vgend_fleet_steals_total, vgend_replica_stolen_total).
//
// Usage: vgend [-addr :8080] [-model codellama|codet5p] [-scheme ours]
// [-items 3400] [-seed N] [-workers N] [-queue N]
// [-max-batch N] [-cache N] [-replicas N] [-models specs]
// [-steal] [-list-strategies] [-trace] [-pprof] [-log text|json|off]
//
// Dispatch is a continuous scheduler: requests join and leave the
// running batch at every verification sweep, so a short request runs
// beside a long decode instead of behind it. A decode keeps its slot
// until it finishes; when all -max-batch slots are held, a queued
// request waits, in arrival order, for the next one to free. Prompt
// sessions are shared across requests through a token-prefix trie
// (64 MiB per replica).
//
// The tree strategies (medusa-tree, lookup-tree, ours-tree, and the
// grammar-constrained grammar-tree / grammar-lookup-tree; see
// -list-strategies) draft a branching candidate tree per decoding
// step under the node budget a request carries in its "tree_budget"
// field (the decoder default when it carries none). The grammar
// strategies additionally report oracle work through /metrics
// (grammar_pruned_nodes, grammar_draft_tokens).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/tokenizer"
	"repro/internal/trace"
)

// replicaSpec is one parsed -models entry.
type replicaSpec struct {
	model, scheme, strategy string
}

func parseModelConfig(name string) (model.Config, error) {
	switch name {
	case "codellama":
		return model.CodeLlamaSim(), nil
	case "codet5p":
		return model.CodeT5pSim(), nil
	}
	return model.Config{}, fmt.Errorf("unknown model %q (want codellama or codet5p)", name)
}

func parseScheme(name string) (model.Scheme, error) {
	switch name {
	case "ours":
		return model.SchemeOurs, nil
	case "medusa":
		return model.SchemeMedusa, nil
	case "ntp":
		return model.SchemeNTP, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want ours, medusa or ntp)", name)
}

// parseModels splits -models ("codellama:ours,codet5p:ntp:prompt-lookup")
// into replica specs; defaults fill omitted fields.
func parseModels(s, defaultModel, defaultScheme string) ([]replicaSpec, error) {
	if s == "" {
		return []replicaSpec{{model: defaultModel, scheme: defaultScheme}}, nil
	}
	var specs []replicaSpec
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		spec := replicaSpec{model: parts[0], scheme: defaultScheme}
		if len(parts) > 1 && parts[1] != "" {
			spec.scheme = parts[1]
		}
		if len(parts) > 2 && parts[2] != "" {
			spec.strategy = parts[2]
		}
		if len(parts) > 3 {
			return nil, fmt.Errorf("bad replica spec %q (want model[:scheme[:strategy]])", entry)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "vgend: %v\n", err)
	os.Exit(2)
}

// newLogger maps -log onto a slog handler; "off" yields nil (no
// startup chatter, no request lines).
func newLogger(mode string) (*slog.Logger, error) {
	switch mode {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "off":
		return nil, nil
	}
	return nil, fmt.Errorf("unknown -log mode %q (want text, json or off)", mode)
}

// Connection-level limits of the HTTP listener: a client that never
// finishes its request headers, or parks an idle keep-alive connection,
// is cut off instead of holding a goroutine and a socket forever.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelName := flag.String("model", "codellama", "backbone: codellama or codet5p")
	schemeName := flag.String("scheme", "ours", "training scheme: ours, medusa or ntp")
	items := flag.Int("items", 3400, "corpus items to train on")
	seed := flag.Int64("seed", 1, "corpus/training seed")
	workers := flag.Int("workers", 0, "decoder workers per replica (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 256, "request queue bound per replica")
	maxBatch := flag.Int("max-batch", 0, "max decodes in the running batch (0 = 2*workers, min 8)")
	cache := flag.Int("cache", 512, "LRU cache entries per replica (negative disables)")
	listStrategies := flag.Bool("list-strategies", false, "print the registered decoding strategies and exit")
	replicas := flag.Int("replicas", 1, "fleet size (replicas cycle through -models specs)")
	modelsFlag := flag.String("models", "", "replica specs model[:scheme[:strategy]], comma-separated (empty: -model/-scheme)")
	steal := flag.Bool("steal", false, "fleet: let idle replicas steal queued overflow from affinity hotspots")
	traceOn := flag.Bool("trace", true, "per-request tracing: flight recorder behind /debug/requests and /debug/trace, vgend_phase_seconds_total in /metrics")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logMode := flag.String("log", "text", "structured logging: text, json or off")
	flag.Parse()
	logger, err := newLogger(*logMode)
	if err != nil {
		fail(err)
	}
	logInfo := func(msg string, args ...any) {
		if logger != nil {
			logger.Info(msg, args...)
		}
	}
	if *listStrategies {
		fmt.Print(core.StrategyListing())
		return
	}

	specs, err := parseModels(*modelsFlag, *modelName, *schemeName)
	if err != nil {
		fail(err)
	}
	// Validate every flag-derived choice before the expensive corpus
	// build: a typo must fail in milliseconds, not after training.
	type resolvedSpec struct {
		replicaSpec
		cfg model.Config
		sch model.Scheme
	}
	resolved := make([]resolvedSpec, len(specs))
	for i, spec := range specs {
		cfg, err := parseModelConfig(spec.model)
		if err != nil {
			fail(err)
		}
		scheme, err := parseScheme(spec.scheme)
		if err != nil {
			fail(err)
		}
		if spec.strategy != "" {
			if _, err := core.ResolveStrategy(spec.strategy, false); err != nil {
				fail(err)
			}
		}
		resolved[i] = resolvedSpec{replicaSpec: spec, cfg: cfg, sch: scheme}
	}
	// -steal is an explicit ask for the cluster layer, even with one
	// replica: silently ignoring it would leave the operator believing
	// it is active.
	fleetMode := *replicas > 1 || len(specs) > 1 || specs[0].strategy != "" || *steal
	n := *replicas
	if n < len(specs) {
		n = len(specs)
	}

	// One corpus; one tokenizer per backbone; one trained model per
	// distinct (backbone, scheme) pair — replicas sharing a pair share
	// the immutable trained model but keep their own engine and caches.
	logInfo("building corpus", "items", *items)
	start := time.Now()
	examples, stats := dataset.BuildCorpus(dataset.CorpusOptions{Seed: *seed, Items: *items})
	var corpus []string
	limit := min(len(examples), 1500)
	for _, ex := range examples[:limit] {
		corpus = append(corpus, model.FormatPrompt(ex.Prompt)+ex.Code)
	}
	toks := map[string]*tokenizer.Tokenizer{}
	trained := map[string]*model.Model{}
	for _, spec := range resolved {
		key := spec.model + "/" + spec.sch.String()
		if trained[key] != nil {
			continue
		}
		tk := toks[spec.model]
		if tk == nil {
			tk = tokenizer.Train(corpus, spec.cfg.VocabSize)
			toks[spec.model] = tk
		}
		logInfo("training model", "model", spec.cfg.Name, "scheme", spec.sch.String())
		trained[key] = model.Train(tk, spec.cfg, spec.sch, examples)
	}
	logInfo("training done", "corpus", fmt.Sprint(stats), "elapsed", time.Since(start).Round(time.Millisecond).String())

	engCfg := serve.Config{
		Workers:   *workers,
		QueueSize: *queue,
		MaxBatch:  *maxBatch,
		CacheSize: *cache,
	}

	var backend serve.Backend
	var closeBackend func()
	if !fleetMode {
		// Single-engine path: byte-identical to previous releases, no
		// cluster layer in the request path at all.
		eng := serve.NewEngine(trained[resolved[0].model+"/"+resolved[0].sch.String()], engCfg)
		backend, closeBackend = eng, eng.Close
		logInfo("serving",
			"model", resolved[0].model, "scheme", resolved[0].scheme,
			"addr", *addr, "workers", eng.Workers())
	} else {
		replicaSpecs := make([]cluster.ReplicaSpec, n)
		for i := range replicaSpecs {
			spec := resolved[i%len(resolved)]
			replicaSpecs[i] = cluster.ReplicaSpec{
				Name:            fmt.Sprintf("r%d:%s/%s", i, spec.model, spec.scheme),
				Model:           trained[spec.model+"/"+spec.sch.String()],
				Engine:          engCfg,
				DefaultStrategy: spec.strategy,
			}
		}
		fleet, err := cluster.New(replicaSpecs, cluster.Config{Steal: *steal})
		if err != nil {
			fail(err)
		}
		backend, closeBackend = fleet, fleet.Close
		logInfo("serving fleet", "replicas", n, "steal", *steal, "addr", *addr)
	}

	server := serve.NewBackendServer(backend).WithPprof(*pprofOn)
	if *traceOn {
		server = server.WithTracer(trace.New(trace.Config{}))
	}
	if logger != nil {
		server = server.WithLogger(logger)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		logInfo("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "vgend: %v\n", err)
		os.Exit(1)
	}
	// ListenAndServe returned ErrServerClosed, so Shutdown is in
	// flight; wait for it to finish draining handlers before tearing
	// the backend down.
	<-shutdownDone
	closeBackend()
}
