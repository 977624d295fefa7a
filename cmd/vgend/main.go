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
//	                     registered decoding strategy (default: the
//	                     serving model's own method); {"model":
//	                     "codellama"} targets one backbone in fleet
//	                     mode; {"stream": true} switches to NDJSON
//	                     streaming (single prompt). An unknown field is
//	                     a 400.
//	GET  /healthz      — liveness plus model/pool (or fleet) identity.
//	GET  /metrics      — engine counters (fleet mode adds per-replica
//	                     detail, routing and steal counters). JSON by
//	                     default; ?format=prometheus (or a Prometheus
//	                     Accept header) selects the text exposition.
//	                     Tracing mode adds vgend_phase_seconds_total.
//	GET  /debug/requests — flight recorder: the last traces plus the
//	                     always-retained slowest ones; ?id= returns one
//	                     request's raw trace snapshot and its rendered
//	                     span tree (-trace mode).
//	GET  /debug/pprof/ — net/http/pprof profiles (behind -pprof).
//
// Every response carries an X-Request-ID header (echoing the caller's,
// or minted); in tracing mode that ID keys the request's trace in the
// flight recorder, so a slow or failed request is debuggable from
// /debug/requests?id=<X-Request-ID> alone.
//
// -models names what the daemon serves as replica specs model[:scheme]
// (default codellama:ours; a spec without a scheme means ours). A
// request that names no strategy decodes with its replica's scheme:
// ntp, medusa or ours. Fleet mode starts when -replicas > 1 or -models
// lists more than one spec; otherwise the daemon runs the exact
// single-engine path of previous releases. The replicas are built at
// startup and never change, e.g.
//
//	vgend -replicas 4
//	vgend -models codellama,codet5p:ntp
//
// Requests are routed per prefix-affinity consistent hashing, so
// shared-prefix traffic concentrates where its caches are warm; a
// request that finds its group's queue full gets an explicit 503
// with a Retry-After header.
//
// Each request gets exactly one attempt, submitted to the replica the
// router picked. Replicas with the same model and scheme form a group:
// they decode with one immutable model and share one request queue
// (-queue per replica), so a member with a free batch slot takes up
// work waiting behind a busy sibling — a steal, observable via /metrics
// (vgend_fleet_steals_total, vgend_replica_stolen_total). A request
// never leaves its group, so a steal decodes the bytes routing chose,
// and a request that fails would fail the same way on a sibling; its
// error comes back as itself.
//
// Usage: vgend [-addr :8080] [-models codellama:ours] [-items 3400]
// [-seed N] [-workers N] [-queue N] [-max-batch N] [-cache N]
// [-replicas N] [-list-strategies] [-trace] [-pprof] [-log text|json|off]
//
// Dispatch is a continuous scheduler: -workers persistent workers step
// the resident decodes in turn, and requests join and leave the batch
// at each decode's own step boundary, so a short request runs
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
	model, scheme string
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

// parseModels splits -models ("codellama,codet5p:ntp") into replica
// specs; an omitted scheme is ours.
func parseModels(s string) ([]replicaSpec, error) {
	var specs []replicaSpec
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		spec := replicaSpec{model: parts[0], scheme: "ours"}
		if len(parts) > 1 && parts[1] != "" {
			spec.scheme = parts[1]
		}
		if len(parts) > 2 {
			return nil, fmt.Errorf("bad replica spec %q (want model[:scheme])", entry)
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
	items := flag.Int("items", 3400, "corpus items to train on")
	seed := flag.Int64("seed", 1, "corpus/training seed")
	workers := flag.Int("workers", 0, "decoder workers per replica (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 256, "request queue bound per replica")
	maxBatch := flag.Int("max-batch", 0, "max decodes in the running batch (0 = 2*workers, min 8)")
	cache := flag.Int("cache", 512, "LRU cache entries per replica (negative disables)")
	listStrategies := flag.Bool("list-strategies", false, "print the registered decoding strategies and exit")
	replicas := flag.Int("replicas", 1, "fleet size (replicas cycle through -models specs)")
	modelsFlag := flag.String("models", "codellama:ours", "replica specs model[:scheme], comma-separated; model codellama or codet5p, scheme ours (default), medusa or ntp")
	traceOn := flag.Bool("trace", true, "per-request tracing: flight recorder behind /debug/requests, vgend_phase_seconds_total in /metrics")
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

	specs, err := parseModels(*modelsFlag)
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
		resolved[i] = resolvedSpec{replicaSpec: spec, cfg: cfg, sch: scheme}
	}
	fleetMode := *replicas > 1 || len(specs) > 1
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
				Name:   fmt.Sprintf("r%d:%s/%s", i, spec.model, spec.scheme),
				Model:  trained[spec.model+"/"+spec.sch.String()],
				Engine: engCfg,
			}
		}
		fleet, err := cluster.New(replicaSpecs, cluster.Config{})
		if err != nil {
			fail(err)
		}
		backend, closeBackend = fleet, fleet.Close
		logInfo("serving fleet", "replicas", n, "addr", *addr)
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
